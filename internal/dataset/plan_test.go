package dataset

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/firmware"
	"repro/internal/smartattr"
)

// PreparePipeline is the whole preprocessing in one call, as the
// dataset suites test it: NewPlan's drop/fill plan, then Plan.Frame
// writing every kept drive's prepared rows. With both SkipClean and
// SkipCumulate set, f itself is returned; cleaning statistics are
// reported only when the clean stage runs.
func PreparePipeline(f *Frame, opts PipelineOptions) (*Frame, CleanStats, error) {
	p, err := NewPlan(f, opts)
	if err != nil {
		return nil, CleanStats{}, err
	}
	out, err := p.Frame()
	if err != nil {
		return nil, CleanStats{}, err
	}
	return out, p.Stats(), nil
}

// fuzzValues are the counter and SMART values a fuzz input picks from:
// the ones whose bits expose arithmetic reordering (-0, fractions
// whose means round) and the ones that overflow running totals.
var fuzzValues = []float64{math.Copysign(0, -1), 0, 1, 0.5, 1.0 / 3, 7, 0.1, 1e308, 2.5e-324}

// fuzzFrame decodes a fuzz input into a raw frame: up to four drives,
// each with up to eight rows, whose day gaps and values the bytes pick.
func fuzzFrame(t *testing.T, data []byte) *Frame {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	b := NewFrameBuilder()
	drives := 1 + next()%4
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%d", dr)
		day := next() % 3
		rows := 1 + next()%8
		for r := 0; r < rows; r++ {
			if r > 0 {
				day += 1 + next()%12
			}
			v0, step := next(), next()
			pick := func(j int) float64 { return fuzzValues[(v0+j*step)%len(fuzzValues)] }
			var smart smartattr.Values
			for j := range smart {
				smart[j] = pick(j)
			}
			w, bc := make([]float64, wWidth), make([]float64, bWidth)
			for j := range w {
				w[j] = pick(len(smart) + j)
			}
			for j := range bc {
				bc[j] = pick(len(smart) + len(w) + j)
			}
			fw := firmware.Version(fmt.Sprintf("FW%d", next()%3))
			if err := b.AppendRow(sn, "I", "M", day, fw, &smart, w, bc, next()%5 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Finish()
}

// FuzzPlanStep streams every kept drive through the per-drive step and
// requires its rows, bit for bit, to be those of PreparePipeline's
// arena and of the record-form reference pipeline (cleanRef, then
// cumulateRef), for any day gaps, counters and policy.
func FuzzPlanStep(f *testing.F) {
	f.Add([]byte{3, 0, 7, 1, 2, 0, 2, 3, 1, 9, 4, 4, 0}, uint8(10), uint8(3), false, false)
	f.Add([]byte{1, 1, 5, 2, 7, 1, 3, 1, 8, 2, 5, 1, 6}, uint8(6), uint8(3), false, true)
	f.Add([]byte{2, 2, 3, 0, 1, 1, 1, 2, 3, 4, 5}, uint8(2), uint8(1), true, false)
	f.Add([]byte{0, 0, 7, 7, 8, 1, 7, 8, 2, 7, 8, 3}, uint8(10), uint8(1), false, false)
	f.Fuzz(func(t *testing.T, data []byte, dropGap, fillGap uint8, skipClean, skipCumulate bool) {
		opts := PipelineOptions{Policy: GapPolicy{DropGap: int(dropGap), FillGap: int(fillGap)},
			SkipClean: skipClean, SkipCumulate: skipCumulate}
		if !skipClean && opts.Policy.Validate() != nil {
			t.Skip()
		}
		src := fuzzFrame(t, data)
		p, err := NewPlan(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := PreparePipeline(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := preparedRecordPath(src.ToDataset(), opts.Policy, skipClean, skipCumulate)
		if stats != wantStats || p.Stats() != wantStats {
			t.Fatalf("stats %+v (plan %+v), want %+v", stats, p.Stats(), wantStats)
		}
		requireDatasetsEqualBits(t, want, out.ToDataset())
		if p.Drives() != out.Drives() || p.Len() != out.Len() {
			t.Fatalf("plan keeps %d drives, %d rows; pipeline %d, %d", p.Drives(), p.Len(), out.Drives(), out.Len())
		}
		same := func(a, b []float64) bool {
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					return false
				}
			}
			return len(a) == len(b)
		}
		if err := p.Stream(1, func(k int, c *Cursor) error {
			d := out.Drive(k)
			if p.Drive(k).SerialNumber != d.SerialNumber {
				t.Fatalf("kept drive %d is %s, pipeline %s", k, p.Drive(k).SerialNumber, d.SerialNumber)
			}
			days := p.Days(k)
			row := int(d.Start)
			for ; c.Next(); row++ {
				if row == int(d.End) {
					t.Fatalf("drive %s: step yields more than %d rows", d.SerialNumber, d.Rows())
				}
				i := row - int(d.Start)
				if c.Day != out.Day(row) || days[i] != c.Day || c.Interpolated != out.Interpolated(row) ||
					src.FirmwareByID(c.Firmware) != out.FirmwareAt(row) ||
					!same(c.Smart, out.SmartRow(row)) || !same(c.W, out.WRow(row)) || !same(c.B, out.BRow(row)) {
					t.Fatalf("drive %s row %d (day %d): step and pipeline differ", d.SerialNumber, i, c.Day)
				}
			}
			if row != int(d.End) || len(days) != d.Rows() {
				t.Fatalf("drive %s: step yields %d rows, %d days; pipeline %d", d.SerialNumber, row-int(d.Start), len(days), d.Rows())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStreamReleasesSourceFrame checks that the cursors Stream pools
// keep neither the plan nor rows aliasing its source: a pooled cursor
// that did would keep a whole decoded frame alive into the next
// training run. Pooled objects survive one collection, so the frame
// must be collected at the first.
func TestStreamReleasesSourceFrame(t *testing.T) {
	collected := make(chan struct{})
	func() {
		src := randomFrame(t, 3, 4)
		runtime.SetFinalizer(src, func(*Frame) { close(collected) })
		p, err := NewPlan(src, PipelineOptions{SkipClean: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Stream(1, func(k int, c *Cursor) error {
			for c.Next() {
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the source frame outlived its plan: a pooled cursor keeps it alive")
	}
}
