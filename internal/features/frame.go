package features

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildSampleSetFrame constructs the flat labelled samples of a
// cleaned, cumulated frame straight into one columnar ml.SampleSet —
// the arena the zero-copy view pipeline (splits, under-sampling, CV
// folds, grid search, feature selection) operates on. Construction is
// two-pass: a labelling pass over the day column counts each drive's
// surviving rows, then every drive copies or gathers its column rows
// in parallel into its pre-computed arena segment, looking firmware
// codes up only when a drive's interned code changes. Rows follow
// drive then day order, identical at any worker count.
func BuildSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primeFrame(f)
	width := e.Width()
	counts, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		n := 0
		for r := int(d.Start); r < int(d.End); r++ {
			if _, keep := rowLabel(faulty, label.FailDay, int(f.Day(r)), &opts); keep {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, f.Drives()+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	total := offs[f.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no samples produced")
	}
	x := make([]float64, total*width)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	g := e.group
	if err := parallel.Do(f.Drives(), opts.Workers, func(i int) error {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		var enc func(id int32) float64
		if g.Firmware {
			venc := e.encoder(d.Vendor)
			lastID, lastCode := int32(-1), 0.0
			enc = func(id int32) float64 {
				if id != lastID {
					lastCode = venc.Encode(f.FirmwareByID(id))
					lastID = id
				}
				return lastCode
			}
		}
		j := offs[i]
		for r := int(d.Start); r < int(d.End); r++ {
			rd := int(f.Day(r))
			yk, keep := rowLabel(faulty, label.FailDay, rd, &opts)
			if !keep {
				continue
			}
			row := x[j*width : (j+1)*width]
			k := 0
			if g.SMART {
				k += copy(row[k:], f.SmartRow(r))
			}
			if g.Firmware {
				row[k] = enc(f.FirmwareID(r))
				k++
			}
			if g.WEvents {
				w := f.WRow(r)
				for _, idx := range e.wIdx {
					row[k] = w[idx]
					k++
				}
			}
			if g.BSOD {
				b := f.BRow(r)
				k += copy(row[k:], b)
				// Same index-order summation as Counts.Total.
				tot := 0.0
				for _, v := range b {
					tot += v
				}
				row[k] = tot
			}
			y[j] = yk
			day[j] = int32(rd)
			sn[j] = d.SerialNumber
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ml.NewSampleSet(width, x, y, day, sn)
}

// BuildSeqSampleSetFrame constructs the sequence samples of the
// CNN_LSTM straight into one columnar ml.SampleSet: a sliding window
// of seqLen consecutive frame *rows* per drive, laid out time-major in
// one arena row of width seqLen×Width (row[t*Width+j] is feature j of
// the window's t-th drive-day). A window is labelled by its last row,
// under the same rules as BuildSampleSetFrame. Because consumer
// telemetry is discontinuous, the rows inside a window may span far
// more calendar days than seqLen — exactly the data-quality hazard the
// paper blames for CNN_LSTM's weaker results.
//
// Construction is two-pass like BuildSampleSetFrame: a labelling pass
// counts each drive's surviving windows, then every drive extracts its
// rows once and copies each window into its pre-computed arena
// segment. Rows follow drive then window-end order, identical at any
// worker count.
func BuildSeqSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, seqLen int, opts BuildOptions) (*ml.SampleSet, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("features: seqLen %d must be ≥ 1", seqLen)
	}
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primeFrame(f)
	width := e.Width()
	counts, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		n := 0
		for end := int(d.Start) + seqLen - 1; end < int(d.End); end++ {
			if _, keep := rowLabel(faulty, label.FailDay, int(f.Day(end)), &opts); keep {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, f.Drives()+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	total := offs[f.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no sequence samples produced")
	}
	seqWidth := seqLen * width
	x := make([]float64, total*seqWidth)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	if err := parallel.Do(f.Drives(), opts.Workers, func(i int) error {
		if counts[i] == 0 {
			return nil
		}
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		// The drive's rows, extracted once: window k is the contiguous
		// run vecs[k*width : (k+seqLen)*width].
		vecs := make([]float64, 0, d.Rows()*width)
		for r := int(d.Start); r < int(d.End); r++ {
			vecs = e.AppendFrameRow(f, i, r, vecs)
		}
		j := offs[i]
		for end := seqLen - 1; end < d.Rows(); end++ {
			rd := int(f.Day(int(d.Start) + end))
			yk, keep := rowLabel(faulty, label.FailDay, rd, &opts)
			if !keep {
				continue
			}
			copy(x[j*seqWidth:(j+1)*seqWidth], vecs[(end-seqLen+1)*width:(end+1)*width])
			y[j] = yk
			day[j] = int32(rd)
			sn[j] = d.SerialNumber
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ml.NewSampleSet(seqWidth, x, y, day, sn)
}

// PositiveSamplesAt extracts one evaluation sample per labelled faulty
// drive of a prepared frame at lookahead days before its failure: the
// drive's row nearest that day (earlier wins ties), if it lies within
// ±tolerance days and not after the failure. Drives are visited in
// frame order, so the probes are too. Used by the Fig. 19 lookahead
// sweep: can the model already see the failure N days out?
func PositiveSamplesAt(f *dataset.Frame, labels labeling.Labels, e *Extractor, lookahead, tolerance int) []ml.Sample {
	var samples []ml.Sample
	for i := 0; i < f.Drives(); i++ {
		d := f.Drive(i)
		label, ok := labels[d.SerialNumber]
		if !ok || d.Rows() == 0 {
			continue
		}
		target := label.FailDay - lookahead
		if target < 0 {
			continue
		}
		r := closestRow(f, d, target)
		rd := int(f.Day(r))
		diff := rd - target
		if diff < 0 {
			diff = -diff
		}
		if diff > tolerance || rd > label.FailDay {
			continue
		}
		samples = append(samples, ml.Sample{
			X:   e.AppendFrameRow(f, i, r, make([]float64, 0, e.Width())),
			Y:   1,
			SN:  d.SerialNumber,
			Day: rd,
		})
	}
	return samples
}

// closestRow returns the row of a non-empty drive whose day is nearest
// to day, the earlier row winning ties.
func closestRow(f *dataset.Frame, d *dataset.FrameDrive, day int) int {
	start, n := int(d.Start), d.Rows()
	k := sort.Search(n, func(k int) bool { return int(f.Day(start+k)) >= day })
	switch {
	case k == 0:
		return start
	case k == n:
		return start + n - 1
	}
	before, after := start+k-1, start+k
	if day-int(f.Day(before)) <= int(f.Day(after))-day {
		return before
	}
	return after
}
