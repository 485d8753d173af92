package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildOptions controls labelled-sample construction.
type BuildOptions struct {
	// PositiveWindowDays: records of a faulty drive within this many
	// days before (and including) the labelled failure day become
	// positive samples (the paper uses 7, 14, or 21).
	PositiveWindowDays int
	// NegativeFromFaulty, when set, also emits a faulty drive's records
	// *older* than ExclusionDays before failure as negatives. The paper
	// draws negatives from healthy drives only, so this defaults off.
	NegativeFromFaulty bool
	// ExclusionDays guards the label boundary: faulty-drive records in
	// (failDay−PositiveWindowDays−ExclusionDays, failDay−PositiveWindowDays]
	// are dropped entirely — they are too close to failure to be safe
	// negatives but too early to be confident positives.
	ExclusionDays int
	// Workers bounds the per-drive extraction goroutines; 0 selects
	// GOMAXPROCS, 1 reproduces serial extraction. Sample content and
	// order are identical at any setting.
	Workers int
}

// DefaultBuildOptions matches the paper: 7-day positive window,
// negatives from healthy drives only, 7 guard days.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
}

// rowLabel applies the labelling rules of BuildOptions to one record
// of a drive: the returned label is valid only when keep is true —
// dropped records are post-failure stragglers, guard-band rows, and
// (by default) the early history of faulty drives.
func rowLabel(faulty bool, failDay, day int, opts *BuildOptions) (y int8, keep bool) {
	switch {
	case !faulty:
		return 0, true
	case day > failDay:
		return 0, false
	case day > failDay-opts.PositiveWindowDays:
		return 1, true
	case day > failDay-opts.PositiveWindowDays-opts.ExclusionDays:
		return 0, false // guard band
	default:
		return 0, opts.NegativeFromFaulty
	}
}

// concatSamples flattens per-drive sample slices with one exact-sized
// allocation.
func concatSamples(perDrive [][]ml.Sample) []ml.Sample {
	total := 0
	for _, p := range perDrive {
		total += len(p)
	}
	samples := make([]ml.Sample, 0, total)
	for _, p := range perDrive {
		samples = append(samples, p...)
	}
	return samples
}

// BuildSeqSamples constructs sequence samples for the CNN_LSTM: sliding
// windows of seqLen consecutive *records* per drive, flattened
// time-major (X[t*width+f]). A window is positive when its final record
// falls in the positive window. Because consumer telemetry is
// discontinuous, the records inside a window may span far more calendar
// days than seqLen — exactly the data-quality hazard the paper blames
// for CNN_LSTM's weaker results.
func BuildSeqSamples(data *dataset.Dataset, labels labeling.Labels, e *Extractor, seqLen int, opts BuildOptions) ([]ml.Sample, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("features: seqLen %d must be ≥ 1", seqLen)
	}
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.prime(data)
	width := e.Width()
	sns := data.SerialNumbers()
	perDrive, err := parallel.Map(len(sns), opts.Workers, func(di int) ([]ml.Sample, error) {
		s, _ := data.Series(sns[di])
		if len(s.Records) < seqLen {
			return nil, nil
		}
		label, faulty := labels[s.SerialNumber]
		vecs := make([][]float64, len(s.Records))
		for i := range s.Records {
			vecs[i] = e.Extract(&s.Records[i])
		}
		samples := make([]ml.Sample, 0, len(s.Records)-seqLen+1)
		for end := seqLen - 1; end < len(s.Records); end++ {
			last := &s.Records[end]
			y, keep := rowLabel(faulty, label.FailDay, last.Day, &opts)
			if !keep {
				continue
			}
			x := make([]float64, seqLen*width)
			for t := 0; t < seqLen; t++ {
				copy(x[t*width:(t+1)*width], vecs[end-seqLen+1+t])
			}
			samples = append(samples, ml.Sample{
				X:   x,
				Y:   int(y),
				SN:  s.SerialNumber,
				Day: last.Day,
			})
		}
		return samples, nil
	})
	if err != nil {
		return nil, err
	}
	samples := concatSamples(perDrive)
	if len(samples) == 0 {
		return nil, fmt.Errorf("features: no sequence samples produced")
	}
	return samples, nil
}

// PositiveSamplesAt extracts one evaluation sample per faulty drive at
// exactly lookahead days before its labelled failure (nearest record
// within ±tolerance days). Used by the Fig. 19 lookahead sweep: can the
// model already see the failure N days out?
func PositiveSamplesAt(data *dataset.Dataset, labels labeling.Labels, e *Extractor, lookahead, tolerance int) []ml.Sample {
	var samples []ml.Sample
	for sn, label := range labels {
		series, ok := data.Series(sn)
		if !ok {
			continue
		}
		target := label.FailDay - lookahead
		if target < 0 {
			continue
		}
		rec, ok := series.Closest(target)
		if !ok {
			continue
		}
		diff := rec.Day - target
		if diff < 0 {
			diff = -diff
		}
		if diff > tolerance || rec.Day > label.FailDay {
			continue
		}
		samples = append(samples, ml.Sample{
			X:   e.Extract(rec),
			Y:   1,
			SN:  sn,
			Day: rec.Day,
		})
	}
	return samples
}
