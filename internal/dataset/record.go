// Package dataset defines the telemetry records collected from
// consumer SSDs and the dataset-level preprocessing the paper's MFPA
// pipeline applies before modelling: gap analysis, discontinuity
// optimisation (drop drives with intervals ≥ 10 days, mean-fill
// intervals ≤ 3 days), and the cumulative transform of the daily
// WindowsEvent/BSOD counters.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Interface is the drive interface of the studied population; the paper
// studies M.2 (2280) NVMe drives on PCIe 3.0 x4 exclusively.
const Interface = "PCIe 3.0x4"

// Record is one telemetry observation of one drive on one day: the
// tuple (S/N, model, timestamp, interface, capacity, S{1..16}, F,
// W{1..i}, B{1..j}) of the paper's Section III-C.
type Record struct {
	// SerialNumber identifies the drive.
	SerialNumber string
	// Vendor is the drive manufacturer ("I".."IV" in the paper).
	Vendor string
	// Model is the drive model within the vendor.
	Model string
	// Day is the observation timestamp as a day index from the start
	// of the collection window.
	Day int
	// Smart holds the 16 SMART attribute values of Table II.
	Smart smartattr.Values
	// Firmware is the raw vendor firmware version string; the feature
	// layer label-encodes it.
	Firmware firmware.Version
	// WCounts holds the per-day counts of the Table III Windows
	// events. Once cumulated (PreparePipeline) they hold running totals.
	WCounts winevent.Counts
	// BCounts holds the per-day counts of the Table IV stop codes.
	// Once cumulated they hold running totals.
	BCounts bsod.Counts
	// Interpolated marks records synthesised by the discontinuity
	// optimisation (mean fill) rather than observed.
	Interpolated bool
}

// Clone returns a deep copy of the record (count vectors included).
func (r *Record) Clone() Record {
	c := *r
	c.WCounts = append(winevent.Counts(nil), r.WCounts...)
	c.BCounts = append(bsod.Counts(nil), r.BCounts...)
	return c
}

// ErrNonFinite reports a NaN or ±Inf telemetry value. Collectors feed
// raw bytes from flaky firmware and transport layers, so a non-finite
// value is treated as corruption, never as data.
var ErrNonFinite = errors.New("dataset: non-finite telemetry value")

// ErrNegativeCounter reports a negative daily event count — counts are
// tallies, so a negative value can only be corruption (bit flips,
// truncated parses, integer underflow upstream).
var ErrNegativeCounter = errors.New("dataset: negative event counter")

// validateValues scans one observation's numeric payload: SMART values
// must be finite, W/B daily counts must be finite and non-negative.
// Errors wrap the typed sentinels so callers can classify corruption
// without string matching.
func validateValues(sn string, smart, w, b []float64) error {
	for i, v := range smart {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: record %s SMART[%d] = %v", ErrNonFinite, sn, i, v)
		}
	}
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: record %s W[%d] = %v", ErrNonFinite, sn, i, v)
		}
		if v < 0 {
			return fmt.Errorf("%w: record %s W[%d] = %v", ErrNegativeCounter, sn, i, v)
		}
	}
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: record %s B[%d] = %v", ErrNonFinite, sn, i, v)
		}
		if v < 0 {
			return fmt.Errorf("%w: record %s B[%d] = %v", ErrNegativeCounter, sn, i, v)
		}
	}
	return nil
}

// Validate performs sanity checks on a record: identity and shape, plus
// value-level corruption checks (no NaN/Inf SMART or event values, no
// negative event counters). Value errors wrap ErrNonFinite /
// ErrNegativeCounter.
func (r *Record) Validate() error {
	if r.SerialNumber == "" {
		return fmt.Errorf("dataset: record has empty serial number")
	}
	if r.Day < 0 {
		return fmt.Errorf("dataset: record %s has negative day %d", r.SerialNumber, r.Day)
	}
	if len(r.WCounts) != winevent.Count() {
		return fmt.Errorf("dataset: record %s has %d W counters, want %d", r.SerialNumber, len(r.WCounts), winevent.Count())
	}
	if len(r.BCounts) != bsod.Count() {
		return fmt.Errorf("dataset: record %s has %d B counters, want %d", r.SerialNumber, len(r.BCounts), bsod.Count())
	}
	return validateValues(r.SerialNumber, r.Smart[:], r.WCounts, r.BCounts)
}
