package dataset

import (
	"fmt"
	"testing"
)

// gapDataset builds a fleet whose drives exercise every cleaning
// outcome: contiguous series, fillable short gaps, and drop-worthy
// long gaps, in a mix that varies per drive.
func gapDataset(t *testing.T, drives int) *Dataset {
	t.Helper()
	d := New()
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%03d", dr)
		step := 1 + dr%4 // gap sizes 0..3 between observations
		for day := 0; day < 50; day += step {
			r := rec(sn, day)
			r.WCounts[0] = float64(day % 3)
			mustAppend(t, d, r)
		}
		if dr%7 == 0 { // every 7th drive earns a drop-worthy gap
			mustAppend(t, d, rec(sn, 80))
		}
	}
	return d
}

// TestCleanWorkersIdentical asserts the per-drive clean stage fan-out
// is bit-identical to the serial pass at every worker count.
func TestCleanWorkersIdentical(t *testing.T) {
	f := frameOf(t, gapDataset(t, 40))
	opts := PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true, Workers: 1}
	want, wantStats, err := PreparePipeline(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.DrivesDropped == 0 || wantStats.RecordsFilled == 0 {
		t.Fatalf("fixture exercises nothing: stats = %+v", wantStats)
	}
	for _, w := range []int{0, 2, 3, 8} {
		opts.Workers = w
		got, stats, err := PreparePipeline(f, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats = %+v, want %+v", w, stats, wantStats)
		}
		requireDatasetsEqualBits(t, want.ToDataset(), got.ToDataset())
	}
}
