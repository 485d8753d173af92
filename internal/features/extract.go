package features

import (
	"fmt"
	"slices"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Extractor turns telemetry records into dense feature vectors for one
// feature group. It owns the per-vendor firmware label encoders, so
// encoding is stable across train and test extraction.
type Extractor struct {
	group    Group
	encoders map[string]*firmware.Encoder
	names    []string
	// wevents caches the selected Windows-event IDs in table order:
	// winevent.Selected copies the catalogue on every call, which at one
	// call per record dominated batch extraction's allocations.
	wevents []winevent.ID
	// wIdx holds the selected events' positions in the full counter
	// vector, so the frame builder gathers W features straight from a
	// column row without ID lookups.
	wIdx []int
	// primedForFrame remembers the last frame primed whole, so
	// repeated builds over the same prepared frame skip the full
	// firmware re-scan.
	primedForFrame *dataset.Frame
}

// NewExtractor builds an extractor for group. registries supplies the
// per-vendor firmware release ladders used for order-preserving label
// encoding; vendors absent from the map fall back to first-seen-order
// encoding.
func NewExtractor(group Group, registries map[string]*firmware.Registry) (*Extractor, error) {
	if group.Empty() {
		return nil, fmt.Errorf("features: empty feature group")
	}
	e := &Extractor{
		group:    group,
		encoders: make(map[string]*firmware.Encoder),
	}
	for vendor, reg := range registries {
		e.encoders[vendor] = firmware.NewEncoder(reg)
	}
	e.names = buildNames(group)
	if group.WEvents {
		for _, info := range winevent.Selected() {
			e.wevents = append(e.wevents, info.ID)
			e.wIdx = append(e.wIdx, info.ID.Index())
		}
	}
	return e, nil
}

func buildNames(group Group) []string {
	var names []string
	if group.SMART {
		for id := smartattr.ID(1); id <= smartattr.Count; id++ {
			names = append(names, id.Label())
		}
	}
	if group.Firmware {
		names = append(names, "F")
	}
	if group.WEvents {
		for _, info := range winevent.Selected() {
			names = append(names, info.ID.Label())
		}
	}
	if group.BSOD {
		for _, info := range bsod.All() {
			names = append(names, info.Code.Label())
		}
		names = append(names, "B_total")
	}
	return names
}

// Width returns the feature vector length.
func (e *Extractor) Width() int { return len(e.names) }

// Names returns the feature names in vector order. The slice is shared;
// callers must not modify it.
func (e *Extractor) Names() []string { return e.names }

// encoder returns (creating if needed) the vendor's firmware encoder.
func (e *Extractor) encoder(vendor string) *firmware.Encoder {
	enc, ok := e.encoders[vendor]
	if !ok {
		enc = firmware.NewEncoder(nil)
		e.encoders[vendor] = enc
	}
	return enc
}

// primePlan registers every (vendor, firmware version) pair of p's kept
// drives with the extractor's encoders, visiting drives in plan order
// and rows in day order. After priming, extraction over the plan only
// reads the extractor, so the builders can fan it out across
// goroutines; it also fixes the first-seen-order codes of
// registry-unknown versions to plan order rather than extraction
// order, keeping the encoding independent of scheduling. Dropped
// drives are not visited: a version seen only on them would otherwise
// shift the codes of later ones. Fill rows carry the earlier row's
// firmware, so the source rows hold every version; rows with an
// unchanged interned firmware code are skipped — encoding is
// per-version, so only code changes matter. No-op for groups without
// the firmware feature.
func (e *Extractor) primePlan(p *dataset.Plan) {
	if !e.group.Firmware {
		return
	}
	f := p.Source()
	all := p.Drives() == f.Drives()
	if all && e.primedForFrame == f {
		return
	}
	for k := 0; k < p.Drives(); k++ {
		d := p.Drive(k)
		enc := e.encoder(d.Vendor)
		last := int32(-1)
		for r := int(d.Start); r < int(d.End); r++ {
			if id := f.FirmwareID(r); id != last {
				enc.Encode(f.FirmwareByID(id))
				last = id
			}
		}
	}
	if all {
		e.primedForFrame = f
	}
}

// PrimeFrame registers every (vendor, firmware version) pair of f with
// the extractor's encoders, in the same drive-then-row order the
// offline build uses. After priming, feature extraction over the
// frame's versions performs only reads on the extractor, so serving
// paths can fan out across goroutines. No-op for groups without the
// firmware feature.
func (e *Extractor) PrimeFrame(f *dataset.Frame) { e.primePlan(dataset.IdentityPlan(f)) }

// PrimeVersion registers one (vendor, firmware version) pair, creating
// the vendor's encoder if needed. Online scorers call it serially for
// each incoming record before fanning extraction out, so the encoder
// maps are never written concurrently and registry-unknown versions get
// first-seen codes in arrival order. No-op for groups without the
// firmware feature.
func (e *Extractor) PrimeVersion(vendor string, v firmware.Version) {
	if !e.group.Firmware {
		return
	}
	e.encoder(vendor).Encode(v)
}

// FirmwareCode is one registry-unknown firmware version with the code
// its vendor's encoder gave it.
type FirmwareCode struct {
	Version firmware.Version `json:"version"`
	Code    float64          `json:"code"`
}

// UnknownFirmware returns, per vendor, the registry-unknown firmware
// versions the encoders have coded, in code order. Vendors without
// such versions are left out. Together with the registries, these
// codes fix the encoding.
func (e *Extractor) UnknownFirmware() map[string][]FirmwareCode {
	out := make(map[string][]FirmwareCode)
	for vendor, enc := range e.encoders {
		for _, v := range enc.Unregistered() {
			code, _ := enc.Lookup(v)
			out[vendor] = append(out[vendor], FirmwareCode{Version: v, Code: code})
		}
	}
	return out
}

// RestoreFirmware primes vendor's encoder with codes' versions in
// order, as UnknownFirmware listed them, and fails if any version comes
// out with a different code: the registries or the encoder's history
// differ from the ones the codes were taken under.
func (e *Extractor) RestoreFirmware(vendor string, codes []FirmwareCode) error {
	if len(codes) > 0 && !e.group.Firmware {
		return fmt.Errorf("features: group %s has no firmware feature to restore codes for", e.group)
	}
	for _, c := range codes {
		if got := e.encoder(vendor).Encode(c.Version); got != c.Code {
			return fmt.Errorf("features: vendor %s firmware %q encodes as %v, want %v", vendor, c.Version, got, c.Code)
		}
	}
	return nil
}

// putRow writes the feature vector of one already-cumulated drive-day
// — SMART values, the encoded firmware version, and the running W/B
// totals — into row, which holds exactly Width values. It is the one
// per-row extraction: the builders and the serving data plane both
// reach it. fw is ignored for groups without the firmware feature.
func (e *Extractor) putRow(row, smart []float64, fw float64, cumW, cumB []float64) {
	k := 0
	if e.group.SMART {
		k += copy(row, smart)
	}
	if e.group.Firmware {
		row[k] = fw
		k++
	}
	if e.group.WEvents {
		for _, idx := range e.wIdx {
			row[k] = cumW[idx]
			k++
		}
	}
	if e.group.BSOD {
		k += copy(row[k:], cumB)
		// Same index-order summation as Counts.Total.
		tot := 0.0
		for _, v := range cumB {
			tot += v
		}
		row[k] = tot
	}
}

// appendCumRow appends the feature vector of one already-cumulated
// drive-day to dst. It is ExtractInto without the Record: the serving
// data plane keeps cumulates in flat slices and never materialises
// records. After priming, it only reads the extractor.
func (e *Extractor) appendCumRow(vendor string, smart []float64, fw firmware.Version, cumW, cumB []float64, dst []float64) []float64 {
	code := 0.0
	if e.group.Firmware {
		code = e.encoder(vendor).Encode(fw)
	}
	n := len(dst)
	dst = slices.Grow(dst, e.Width())[:n+e.Width()]
	e.putRow(dst[n:], smart, code, cumW, cumB)
	return dst
}

// fwCoder encodes the firmware codes of one drive's rows for one
// goroutine, looking a version up only when the interned code changes.
type fwCoder struct {
	f        *dataset.Frame
	enc      *firmware.Encoder // nil for groups without the firmware feature
	lastID   int32
	lastCode float64
}

// firmwareCoder returns the firmware encoding of vendor's rows of f.
// After priming, it only reads the extractor.
func (e *Extractor) firmwareCoder(f *dataset.Frame, vendor string) fwCoder {
	c := fwCoder{f: f, lastID: -1}
	if e.group.Firmware {
		c.enc = e.encoder(vendor)
	}
	return c
}

// code returns the feature value of firmware code id (0 without the
// firmware feature).
func (c *fwCoder) code(id int32) float64 {
	if c.enc != nil && id != c.lastID {
		c.lastCode = c.enc.Encode(c.f.FirmwareByID(id))
		c.lastID = id
	}
	return c.lastCode
}

// AppendFrameRow appends the feature vector of one row of a cumulated
// frame to dst; drive is the index of the frame drive the row belongs
// to, whose vendor picks the firmware encoder. Its values equal the
// BuildSampleSetFrame row of the same drive-day. After PrimeFrame on
// f it only reads the extractor.
func (e *Extractor) AppendFrameRow(f *dataset.Frame, drive, row int, dst []float64) []float64 {
	return e.appendCumRow(f.Drive(drive).Vendor, f.SmartRow(row), f.FirmwareAt(row), f.WRow(row), f.BRow(row), dst)
}

// Extract builds the feature vector of r. The W and B counters are used
// as stored — pass records of a prepared frame (dataset.Plan.Frame) to
// follow the paper's accumulated-count preprocessing.
func (e *Extractor) Extract(r *dataset.Record) []float64 {
	return e.ExtractInto(r, make([]float64, 0, e.Width()))
}

// ExtractInto appends r's feature vector to dst and returns the
// extended slice — the allocation-free primitive behind the columnar
// sample arena: a builder can extract whole drives into one chunk
// instead of one heap vector per record.
func (e *Extractor) ExtractInto(r *dataset.Record, dst []float64) []float64 {
	if e.group.SMART {
		dst = append(dst, r.Smart[:]...)
	}
	if e.group.Firmware {
		dst = append(dst, e.encoder(r.Vendor).Encode(r.Firmware))
	}
	if e.group.WEvents {
		for _, id := range e.wevents {
			dst = append(dst, r.WCounts.Get(id))
		}
	}
	if e.group.BSOD {
		dst = append(dst, r.BCounts...)
		dst = append(dst, r.BCounts.Total())
	}
	return dst
}
