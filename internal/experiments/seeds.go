package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/simfleet"
)

// SeedsResult quantifies the across-seed stability of the per-vendor
// models: the paper's Fig. 11 observation that vendor IV "works not
// well as it has the fewest faulty SSDs" is fundamentally a variance
// statement, and this experiment measures it directly by re-simulating
// and re-training under several seeds.
type SeedsResult struct {
	Seeds []int64
	// TPRByVendor[vendor] holds one TPR per seed, in Seeds order.
	TPRByVendor map[string][]float64
	Vendors     []string
}

// Seeds runs the SFWB+RF pipeline for the largest and smallest vendors
// across three fleets that differ only by seed.
func (c *Context) Seeds() (*SeedsResult, error) {
	res := &SeedsResult{
		Seeds:       []int64{c.Cfg.Seed, c.Cfg.Seed + 1, c.Cfg.Seed + 2},
		TPRByVendor: make(map[string][]float64),
		Vendors:     []string{"I", "IV"},
	}
	for _, seed := range res.Seeds {
		cfg := c.Cfg
		cfg.Seed = seed
		// A reduced fleet keeps three simulations affordable while
		// preserving the vendor-size contrast.
		if cfg.FailureScale > 0.1 {
			cfg.FailureScale = 0.1
		}
		fleet, err := simfleet.SimulateFrame(cfg)
		if err != nil {
			return nil, err
		}
		for _, vendor := range res.Vendors {
			pc := core.DefaultConfig(vendor)
			pc.Group = features.GroupSFWB
			pc.Registries = c.Registries
			pc.Seed = seed
			_, rep, err := core.TrainOnFrame(fleet.Frame, fleet.Tickets, pc)
			if err != nil {
				return nil, fmt.Errorf("experiments: seed %d vendor %s: %w", seed, vendor, err)
			}
			res.TPRByVendor[vendor] = append(res.TPRByVendor[vendor], rep.Eval.TPR())
		}
	}
	return res, nil
}

// Range returns max−min TPR across seeds for a vendor.
func (r *SeedsResult) Range(vendor string) float64 {
	vals := r.TPRByVendor[vendor]
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// String renders the stability study.
func (r *SeedsResult) String() string {
	t := newTable("Seed stability: per-vendor TPR across re-simulated fleets",
		"Vendor", "TPR per seed", "Range")
	for _, vendor := range r.Vendors {
		var cells string
		for i, v := range r.TPRByVendor[vendor] {
			if i > 0 {
				cells += "  "
			}
			cells += f4(v)
		}
		t.addRow(vendor, cells, f4(r.Range(vendor)))
	}
	return t.String()
}
