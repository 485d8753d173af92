package dataset

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// PipelineOptions configures the fused preprocessing pass.
type PipelineOptions struct {
	// Policy is the discontinuity policy applied unless SkipClean.
	Policy GapPolicy
	// SkipClean disables gap drop/fill (ablation: every drive is kept
	// verbatim and no rows are synthesised).
	SkipClean bool
	// SkipCumulate leaves the W/B counters as daily values.
	SkipCumulate bool
	// Workers bounds the per-drive fan-out (0 = GOMAXPROCS, 1 =
	// serial). The output is bit-identical at any setting.
	Workers int
}

// cumScratch holds one worker's running-total vectors, pooled so the
// per-drive pass allocates nothing after warm-up.
type cumScratch struct {
	w, b []float64
}

var cumPool = sync.Pool{New: func() any {
	return &cumScratch{w: make([]float64, wWidth), b: make([]float64, bWidth)}
}}

// PreparePipeline runs the paper's preprocessing — the discontinuity
// optimisation (drop drives with a gap of Policy.DropGap days or more,
// mean-fill gaps of 2..Policy.FillGap days with Interpolated rows whose
// firmware is carried from the earlier observation) followed by the
// cumulative W/B transform — as one fused traversal of each drive's
// row range. Gap analysis, drop, mean-fill, and cumulation happen in a
// single pass that writes survivors and synthesised fill rows straight
// into a pre-sized output arena. Gaps between FillGap and DropGap are
// left as-is: the drive survives but keeps its hole, the data-quality
// hazard the paper notes for sequence models such as CNN_LSTM.
//
// Fills average the two adjacent daily observations element-wise,
// running totals accumulate in day order, and the first observed row's
// counter bits are copied, not recomputed. Per-drive work fans out
// over opts.Workers with a deterministic ordered merge, so the output
// is bit-identical at any worker count. The input frame is never
// modified.
//
// With both SkipClean and SkipCumulate set, f itself is returned.
// Cleaning statistics are reported only when the clean stage runs.
func PreparePipeline(f *Frame, opts PipelineOptions) (*Frame, CleanStats, error) {
	if f.cumulated && !opts.SkipCumulate {
		return nil, CleanStats{}, fmt.Errorf("dataset: PreparePipeline on cumulated frame: counts are already running totals")
	}
	if opts.SkipClean && opts.SkipCumulate {
		return f, CleanStats{}, nil
	}
	if !opts.SkipClean {
		if err := opts.Policy.Validate(); err != nil {
			return nil, CleanStats{}, err
		}
	}

	// Pass A (parallel, day column only): decide each drive's fate and
	// size its output range.
	type plan struct {
		drop  bool
		extra int // fill rows to synthesise
	}
	plans, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (plan, error) {
		if opts.SkipClean {
			return plan{}, nil
		}
		d := f.Drive(i)
		var p plan
		for r := int(d.Start) + 1; r < int(d.End); r++ {
			g := int(f.day[r] - f.day[r-1])
			if g >= opts.Policy.DropGap {
				return plan{drop: true}, nil
			}
			if g >= 2 && g <= opts.Policy.FillGap {
				p.extra += g - 1
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, CleanStats{}, err
	}

	// Serial prefix sums over the kept drives give every worker a
	// disjoint output range, so the merge order never depends on
	// scheduling.
	var stats CleanStats
	if !opts.SkipClean {
		stats.DrivesIn = f.Drives()
		stats.RecordsIn = f.Len()
	}
	kept := make([]int, 0, f.Drives())
	outStart := make([]int, 0, f.Drives())
	total := 0
	for i := range plans {
		if plans[i].drop {
			stats.DrivesDropped++
			continue
		}
		kept = append(kept, i)
		outStart = append(outStart, total)
		total += f.Drive(i).Rows() + plans[i].extra
		stats.RecordsFilled += plans[i].extra
	}
	if opts.SkipClean {
		stats = CleanStats{}
	}

	out := NewFrameArena(total)
	out.shareFirmwareTable(f)
	out.cumulated = !opts.SkipCumulate || f.cumulated
	fill := !opts.SkipClean
	cumulate := !opts.SkipCumulate

	// Pass B: each kept drive streams through clean+cumulate into its
	// output range. Running totals live in pooled scratch; the first
	// observed row is copied bit-for-bit (accumulating into a zeroed
	// vector would quietly turn -0 counters into +0).
	if err := parallel.Do(len(kept), opts.Workers, func(k int) error {
		d := f.Drive(kept[k])
		sc := cumPool.Get().(*cumScratch)
		defer cumPool.Put(sc)
		cw, cb := sc.w, sc.b
		row := outStart[k]
		for r := int(d.Start); r < int(d.End); r++ {
			if r > int(d.Start) && fill {
				if g := int(f.day[r] - f.day[r-1]); g >= 2 && g <= opts.Policy.FillGap {
					aS, bS := f.SmartRow(r-1), f.SmartRow(r)
					aW, bW := f.WRow(r-1), f.WRow(r)
					aB, bB := f.BRow(r-1), f.BRow(r)
					fwID := f.fw[r-1] // firmware cannot change while off
					for dd := f.day[r-1] + 1; dd < f.day[r]; dd++ {
						oS := out.SmartRow(row)
						for j := range oS {
							oS[j] = (aS[j] + bS[j]) / 2
						}
						oW, oB := out.WRow(row), out.BRow(row)
						if cumulate {
							for j := range oW {
								cw[j] += (aW[j] + bW[j]) / 2
								oW[j] = cw[j]
							}
							for j := range oB {
								cb[j] += (aB[j] + bB[j]) / 2
								oB[j] = cb[j]
							}
						} else {
							for j := range oW {
								oW[j] = (aW[j] + bW[j]) / 2
							}
							for j := range oB {
								oB[j] = (aB[j] + bB[j]) / 2
							}
						}
						out.day[row] = dd
						out.interp[row] = true
						out.fw[row] = fwID
						row++
					}
				}
			}
			out.day[row] = f.day[r]
			out.interp[row] = f.interp[r]
			out.fw[row] = f.fw[r]
			copy(out.SmartRow(row), f.SmartRow(r))
			oW, oB := out.WRow(row), out.BRow(row)
			srcW, srcB := f.WRow(r), f.BRow(r)
			switch {
			case !cumulate:
				copy(oW, srcW)
				copy(oB, srcB)
			case r == int(d.Start):
				copy(oW, srcW)
				copy(oB, srcB)
				copy(cw, oW)
				copy(cb, oB)
			default:
				for j := range oW {
					cw[j] += srcW[j]
					oW[j] = cw[j]
				}
				for j := range oB {
					cb[j] += srcB[j]
					oB[j] = cb[j]
				}
			}
			row++
		}
		return nil
	}); err != nil {
		return nil, CleanStats{}, err
	}

	// Ordered merge: register drives serially in dataset order. This is
	// also the once-per-build day-monotonicity validation point.
	for k, i := range kept {
		d := f.Drive(i)
		end := outStart[k] + d.Rows() + plans[i].extra
		if err := out.AddDrive(d.SerialNumber, d.Vendor, d.Model, outStart[k], end); err != nil {
			return nil, CleanStats{}, err
		}
	}
	return out, stats, nil
}
