package simfleet

import (
	"fmt"

	"repro/internal/firmware"
)

// ModelSpec describes one drive model of a vendor.
type ModelSpec struct {
	// Name is the model designator, unique within the vendor.
	Name string
	// CapacityGB is the drive capacity.
	CapacityGB float64
	// Layers is the 3D NAND layer count (32–96 in the studied fleet).
	Layers int
	// Share is the model's fraction of the vendor population; a
	// vendor's model shares sum to 1.
	Share float64
	// EnduranceTBW is the rated endurance in terabytes written, used to
	// derive the PercentageUsed SMART attribute.
	EnduranceTBW float64
}

// VendorSpec describes one vendor population (a row of Table VI).
type VendorSpec struct {
	// Name is the vendor label ("I".."IV" in the paper).
	Name string
	// Models lists the vendor's drive models.
	Models []ModelSpec
	// Firmware is the vendor's release registry; per Observation #2,
	// drives mostly stay on the release they shipped with, and earlier
	// releases carry larger hazard multipliers.
	Firmware *firmware.Registry
	// Population is the nominal fleet size (Table VI's Total column).
	// Replacement rates are computed against this number even though
	// only a subsample of healthy drives is materialised.
	Population int
	// Failures is the nominal failure count over the full study window
	// (Table VI's Sum_failure), before Config.FailureScale.
	Failures int
}

// Validate reports spec errors.
func (v *VendorSpec) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("vendor has empty name")
	}
	if v.Population <= 0 {
		return fmt.Errorf("vendor %s: population %d must be > 0", v.Name, v.Population)
	}
	if v.Failures < 0 {
		return fmt.Errorf("vendor %s: failures %d must be ≥ 0", v.Name, v.Failures)
	}
	if v.Firmware == nil {
		return fmt.Errorf("vendor %s: nil firmware registry", v.Name)
	}
	if len(v.Models) == 0 {
		return fmt.Errorf("vendor %s: no models", v.Name)
	}
	var share float64
	seen := make(map[string]bool, len(v.Models))
	for _, m := range v.Models {
		if m.Name == "" {
			return fmt.Errorf("vendor %s: model with empty name", v.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("vendor %s: duplicate model %s", v.Name, m.Name)
		}
		seen[m.Name] = true
		if m.CapacityGB <= 0 {
			return fmt.Errorf("vendor %s: model %s capacity %g must be > 0", v.Name, m.Name, m.CapacityGB)
		}
		if m.Share < 0 {
			return fmt.Errorf("vendor %s: model %s share %g must be ≥ 0", v.Name, m.Name, m.Share)
		}
		if m.EnduranceTBW <= 0 {
			return fmt.Errorf("vendor %s: model %s endurance %g must be > 0", v.Name, m.Name, m.EnduranceTBW)
		}
		share += m.Share
	}
	if share < 1-1e-6 || share > 1+1e-6 {
		return fmt.Errorf("vendor %s: model shares sum to %g, want 1", v.Name, share)
	}
	return nil
}

// DefaultVendors reproduces the fleet of Table VI: four vendors, twelve
// models (128 GB–1 TB, 32–96 layer 3D TLC), populations and failure
// counts matching the paper, and firmware release ladders matching
// Fig. 3 (vendor I has 5 releases, II has 3, III and IV have 2; earlier
// releases fail more).
func DefaultVendors() []VendorSpec {
	return []VendorSpec{
		{
			Name: "I",
			Models: []ModelSpec{
				{Name: "I-A128", CapacityGB: 128, Layers: 32, Share: 0.20, EnduranceTBW: 75},
				{Name: "I-B256", CapacityGB: 256, Layers: 64, Share: 0.35, EnduranceTBW: 150},
				{Name: "I-C512", CapacityGB: 512, Layers: 64, Share: 0.30, EnduranceTBW: 300},
				{Name: "I-D1024", CapacityGB: 1024, Layers: 96, Share: 0.15, EnduranceTBW: 600},
			},
			Firmware: firmware.MustNewRegistry("I", []firmware.Release{
				{Version: "IFW1000", Seq: 1, HazardMultiplier: 3.2, ShipShare: 0.12},
				{Version: "IFW1100", Seq: 2, HazardMultiplier: 2.4, ShipShare: 0.18},
				{Version: "IFW1200", Seq: 3, HazardMultiplier: 1.3, ShipShare: 0.25},
				{Version: "IFW1300", Seq: 4, HazardMultiplier: 0.8, ShipShare: 0.25},
				{Version: "IFW1400", Seq: 5, HazardMultiplier: 0.5, ShipShare: 0.20},
			}),
			Population: 270325,
			Failures:   1850,
		},
		{
			Name: "II",
			Models: []ModelSpec{
				{Name: "II-A256", CapacityGB: 256, Layers: 64, Share: 0.40, EnduranceTBW: 150},
				{Name: "II-B512", CapacityGB: 512, Layers: 96, Share: 0.40, EnduranceTBW: 300},
				{Name: "II-C1024", CapacityGB: 1024, Layers: 96, Share: 0.20, EnduranceTBW: 600},
			},
			Firmware: firmware.MustNewRegistry("II", []firmware.Release{
				{Version: "2.0E", Seq: 1, HazardMultiplier: 1.9, ShipShare: 0.30},
				{Version: "2.1E", Seq: 2, HazardMultiplier: 1.0, ShipShare: 0.40},
				{Version: "2.2E", Seq: 3, HazardMultiplier: 0.6, ShipShare: 0.30},
			}),
			Population: 1001278,
			Failures:   669,
		},
		{
			Name: "III",
			Models: []ModelSpec{
				{Name: "III-A128", CapacityGB: 128, Layers: 32, Share: 0.25, EnduranceTBW: 75},
				{Name: "III-B256", CapacityGB: 256, Layers: 64, Share: 0.45, EnduranceTBW: 150},
				{Name: "III-C512", CapacityGB: 512, Layers: 96, Share: 0.30, EnduranceTBW: 300},
			},
			Firmware: firmware.MustNewRegistry("III", []firmware.Release{
				{Version: "S3A00101", Seq: 1, HazardMultiplier: 1.6, ShipShare: 0.45},
				{Version: "S3A00201", Seq: 2, HazardMultiplier: 0.5, ShipShare: 0.55},
			}),
			Population: 908037,
			Failures:   463,
		},
		{
			Name: "IV",
			Models: []ModelSpec{
				{Name: "IV-A256", CapacityGB: 256, Layers: 64, Share: 0.60, EnduranceTBW: 150},
				{Name: "IV-B512", CapacityGB: 512, Layers: 96, Share: 0.40, EnduranceTBW: 300},
			},
			Firmware: firmware.MustNewRegistry("IV", []firmware.Release{
				{Version: "41.00A", Seq: 1, HazardMultiplier: 1.5, ShipShare: 0.55},
				{Version: "42.00A", Seq: 2, HazardMultiplier: 0.39, ShipShare: 0.45},
			}),
			Population: 152405,
			Failures:   172,
		},
	}
}
