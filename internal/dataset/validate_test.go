package dataset

import (
	"errors"
	"math"
	"testing"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/winevent"
)

func validRecord() Record {
	r := Record{
		SerialNumber: "V-001",
		Vendor:       "I",
		Model:        "M",
		Day:          3,
		Firmware:     firmware.Version("1.0.0"),
		WCounts:      make(winevent.Counts, winevent.Count()),
		BCounts:      make(bsod.Counts, bsod.Count()),
	}
	for i := range r.Smart {
		r.Smart[i] = float64(i + 1)
	}
	return r
}

// TestValidateRejectsCorruptValues is the table for the value-level
// hardening: non-finite telemetry and negative event counters must be
// rejected with their typed sentinels, on top of the existing shape
// checks.
func TestValidateRejectsCorruptValues(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Record)
		wantErr error // nil = any error acceptable, sentinel otherwise
		ok      bool
	}{
		{name: "valid", mutate: func(r *Record) {}, ok: true},
		{name: "zero counters valid", mutate: func(r *Record) {
			for i := range r.Smart {
				r.Smart[i] = 0
			}
		}, ok: true},
		{name: "nan smart", mutate: func(r *Record) { r.Smart[4] = math.NaN() }, wantErr: ErrNonFinite},
		{name: "+inf smart", mutate: func(r *Record) { r.Smart[0] = math.Inf(1) }, wantErr: ErrNonFinite},
		{name: "-inf smart", mutate: func(r *Record) { r.Smart[15] = math.Inf(-1) }, wantErr: ErrNonFinite},
		{name: "nan w count", mutate: func(r *Record) { r.WCounts[2] = math.NaN() }, wantErr: ErrNonFinite},
		{name: "inf b count", mutate: func(r *Record) { r.BCounts[1] = math.Inf(1) }, wantErr: ErrNonFinite},
		{name: "negative w count", mutate: func(r *Record) { r.WCounts[0] = -1 }, wantErr: ErrNegativeCounter},
		{name: "negative b count", mutate: func(r *Record) { r.BCounts[2] = -42 }, wantErr: ErrNegativeCounter},
		{name: "negative smart allowed", mutate: func(r *Record) { r.Smart[7] = -5 }, ok: true},
		{name: "empty serial", mutate: func(r *Record) { r.SerialNumber = "" }},
		{name: "negative day", mutate: func(r *Record) { r.Day = -1 }},
		{name: "short w counters", mutate: func(r *Record) { r.WCounts = r.WCounts[:2] }},
		{name: "short b counters", mutate: func(r *Record) { r.BCounts = r.BCounts[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validRecord()
			tc.mutate(&r)
			err := r.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate() accepted a corrupt record")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want errors.Is %v", err, tc.wantErr)
			}
		})
	}
}

// TestFrameBuilderRejectsCorruptValues: the streaming ingest path must
// apply the same value screen, so corrupt telemetry cannot enter a
// frame through AppendRow either.
func TestFrameBuilderRejectsCorruptValues(t *testing.T) {
	appendRec := func(b *FrameBuilder, r Record) error {
		return b.AppendRow(r.SerialNumber, r.Vendor, r.Model, r.Day, r.Firmware,
			&r.Smart, r.WCounts, r.BCounts, false)
	}
	cases := []struct {
		name    string
		mutate  func(*Record)
		wantErr error
	}{
		{name: "nan smart", mutate: func(r *Record) { r.Smart[3] = math.NaN() }, wantErr: ErrNonFinite},
		{name: "inf w count", mutate: func(r *Record) { r.WCounts[1] = math.Inf(-1) }, wantErr: ErrNonFinite},
		{name: "negative b count", mutate: func(r *Record) { r.BCounts[0] = -7 }, wantErr: ErrNegativeCounter},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewFrameBuilder()
			if err := appendRec(b, validRecord()); err != nil {
				t.Fatalf("valid row rejected: %v", err)
			}
			r := validRecord()
			r.Day++
			tc.mutate(&r)
			err := appendRec(b, r)
			if err == nil {
				t.Fatal("AppendRow accepted a corrupt row")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("AppendRow = %v, want errors.Is %v", err, tc.wantErr)
			}
			// The rejected row must not have entered the frame.
			if got := len(b.f.day); got != 1 {
				t.Fatalf("builder holds %d rows after rejection, want 1", got)
			}
		})
	}
}
