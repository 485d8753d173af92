package features

import (
	"fmt"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// fleetFixture builds a many-drive labelled dataset with several
// firmware versions and no registry, so the extractor's first-seen
// firmware encoding (the one mutable extraction path) is exercised.
func fleetFixture(t *testing.T, drives int) (*dataset.Dataset, labeling.Labels, *Extractor) {
	t.Helper()
	d := dataset.New()
	labels := labeling.Labels{}
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%03d", dr)
		fw := firmware.Version(fmt.Sprintf("FW%d", dr%3))
		for day := 0; day <= 30; day++ {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day,
				Firmware: fw,
				WCounts:  winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(dr*100+day))
			r.WCounts.Add(winevent.PagingError, float64(day%2))
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if dr%3 == 0 {
			labels[sn] = labeling.Label{SerialNumber: sn, FailDay: 25 + dr%5}
		}
	}
	e, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, labels, e
}

// TestBuildSeqSamplesWorkersIdentical is the sequence-shaped variant:
// BuildSeqSampleSetFrame's arena, labels, days and serials are
// identical at any worker count.
func TestBuildSeqSamplesWorkersIdentical(t *testing.T) {
	d, labels, _ := fleetFixture(t, 20)
	f := frameOf(t, d)
	opts := DefaultBuildOptions()
	opts.Workers = 1
	serialExt, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	const seqLen = 4
	want, err := BuildSeqSampleSetFrame(f, labels, serialExt, seqLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 8} {
		e, err := NewExtractor(GroupSFWB, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = w
		got, err := BuildSeqSampleSetFrame(f, labels, e, seqLen, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireSetsEqualBits(t, want, got)
	}
}
