package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

func TestPrepareFrameAblations(t *testing.T) {
	fleet := testFleet(t)
	vendor := fleet.Frame.FilterVendor("I")
	base, err := PrepareFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		skipClean, skipCumulate bool
		workers                 int
	}{{true, false, 0}, {false, true, 0}, {true, true, 0}, {false, false, 3}} {
		cfg := DefaultConfig("I")
		cfg.SkipClean, cfg.SkipCumulate, cfg.Workers = c.skipClean, c.skipCumulate, c.workers
		p, err := PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.Frame.Cumulated() == c.skipCumulate {
			t.Fatalf("%+v: cumulated = %v", c, p.Frame.Cumulated())
		}
		if c.skipClean {
			if p.CleanStats != (dataset.CleanStats{}) || p.RecordCount != vendor.Len() || p.Frame.Drives() != vendor.Drives() {
				t.Fatalf("%+v: clean stage ran: stats %+v, %d rows of %d", c, p.CleanStats, p.RecordCount, vendor.Len())
			}
			continue
		}
		if p.CleanStats.DrivesIn != vendor.Drives() {
			t.Fatalf("%+v: clean stats %+v for %d vendor drives", c, p.CleanStats, vendor.Drives())
		}
		if c.skipCumulate {
			continue
		}
		// Only the worker count differs from base: nothing may move.
		if p.CleanStats != base.CleanStats || p.RecordCount != base.RecordCount || !reflect.DeepEqual(p.Labels, base.Labels) {
			t.Fatalf("workers=%d: preparation differs from the default", c.workers)
		}
		want, err := base.BuildSampleSet()
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.BuildSampleSet()
		if err != nil {
			t.Fatal(err)
		}
		wx, gx := want.Arena(), got.Arena()
		if len(wx) != len(gx) {
			t.Fatalf("workers=%d: %d arena values, want %d", c.workers, len(gx), len(wx))
		}
		for i := range wx {
			if math.Float64bits(wx[i]) != math.Float64bits(gx[i]) {
				t.Fatalf("workers=%d: sample arena differs at %d", c.workers, i)
			}
		}
	}
}

func TestPrepareFrameUnknownVendor(t *testing.T) {
	fleet := testFleet(t)
	if _, err := PrepareFrame(fleet.Frame, fleet.Tickets, DefaultConfig("XX")); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}
