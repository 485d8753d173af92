package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildSampleSetFrame constructs the flat labelled samples of a
// cleaned, cumulated frame: BuildSampleSet over the frame's identity
// plan.
func BuildSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	return BuildSampleSet(dataset.IdentityPlan(f), labels, e, opts)
}

// BuildSampleSet constructs the flat labelled samples of a plan's
// prepared rows straight into one columnar ml.SampleSet — the arena
// the zero-copy view pipeline (splits, under-sampling, CV folds, grid
// search, feature selection) operates on. Construction is two-pass: a
// labelling pass over the plan's day column counts each drive's
// surviving rows, then every drive streams its prepared rows through
// the per-drive step (dataset.Cursor) in parallel, extracting each
// kept row into its pre-computed arena segment and looking firmware
// codes up only when a drive's interned code changes. No prepared
// frame is materialised. Rows follow drive then day order, identical
// at any worker count.
func BuildSampleSet(p *dataset.Plan, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primePlan(p)
	width := e.Width()
	offs, err := sampleOffsets(p, labels, 1, &opts)
	if err != nil {
		return nil, err
	}
	total := offs[p.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no samples produced")
	}
	x := make([]float64, total*width)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	if err := p.Stream(opts.Workers, func(k int, c *dataset.Cursor) error {
		d := p.Drive(k)
		label, faulty := labels[d.SerialNumber]
		fw := e.firmwareCoder(p.Source(), d.Vendor)
		// The running totals need every row up to the drive's last kept
		// one; the rows after it are not read.
		for j := offs[k]; j < offs[k+1] && c.Next(); {
			yk, keep := rowLabel(faulty, label.FailDay, int(c.Day), &opts)
			if !keep {
				continue
			}
			e.putRow(x[j*width:(j+1)*width], c.Smart, fw.code(c.Firmware), c.W, c.B)
			y[j] = yk
			day[j] = c.Day
			sn[j] = d.SerialNumber
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ml.NewSampleSet(width, x, y, day, sn)
}

// sampleOffsets is the builders' labelling pass: it counts the kept
// samples of each drive — rows, or windows of seqLen rows labelled by
// their last — off the plan's day column, and returns their prefix
// sums, offs[k] being kept drive k's first arena row.
func sampleOffsets(p *dataset.Plan, labels labeling.Labels, seqLen int, opts *BuildOptions) ([]int, error) {
	counts, err := parallel.Map(p.Drives(), opts.Workers, func(k int) (int, error) {
		label, faulty := labels[p.Drive(k).SerialNumber]
		days := p.Days(k)
		n := 0
		for end := seqLen - 1; end < len(days); end++ {
			if _, keep := rowLabel(faulty, label.FailDay, int(days[end]), opts); keep {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, p.Drives()+1)
	for k, c := range counts {
		offs[k+1] = offs[k] + c
	}
	return offs, nil
}

// BuildSeqSampleSet constructs the sequence samples of the CNN_LSTM
// straight into one columnar ml.SampleSet: a sliding window of seqLen
// consecutive prepared *rows* per drive, laid out time-major in one
// arena row of width seqLen×Width (row[t*Width+j] is feature j of the
// window's t-th drive-day). A window is labelled by its last row, under
// the same rules as BuildSampleSet. Because consumer telemetry is
// discontinuous, the rows inside a window may span far more calendar
// days than seqLen — exactly the data-quality hazard the paper blames
// for CNN_LSTM's weaker results.
//
// Construction is two-pass like BuildSampleSet: a labelling pass counts
// each drive's surviving windows, then every drive streams and
// extracts its rows once and copies each window into its pre-computed
// arena segment. Rows follow drive then window-end order, identical at
// any worker count.
func BuildSeqSampleSet(p *dataset.Plan, labels labeling.Labels, e *Extractor, seqLen int, opts BuildOptions) (*ml.SampleSet, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("features: seqLen %d must be ≥ 1", seqLen)
	}
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primePlan(p)
	width := e.Width()
	offs, err := sampleOffsets(p, labels, seqLen, &opts)
	if err != nil {
		return nil, err
	}
	total := offs[p.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no sequence samples produced")
	}
	seqWidth := seqLen * width
	x := make([]float64, total*seqWidth)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	if err := p.Stream(opts.Workers, func(k int, c *dataset.Cursor) error {
		if offs[k] == offs[k+1] {
			return nil
		}
		d := p.Drive(k)
		label, faulty := labels[d.SerialNumber]
		fw := e.firmwareCoder(p.Source(), d.Vendor)
		days := p.Days(k)
		// The drive's rows, extracted once: window k is the contiguous
		// run vecs[k*width : (k+seqLen)*width].
		vecs := make([]float64, len(days)*width)
		for r := 0; c.Next(); r++ {
			e.putRow(vecs[r*width:(r+1)*width], c.Smart, fw.code(c.Firmware), c.W, c.B)
		}
		j := offs[k]
		for end := seqLen - 1; end < len(days); end++ {
			rd := int(days[end])
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
		r := int(d.Start) + labeling.Closest(f.Days(i), target)
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
