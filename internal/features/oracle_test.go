package features

// Record-form reference implementations, kept as the oracles the frame
// builders are pinned against: BuildSeqSamples for
// BuildSeqSampleSetFrame, positiveSamplesAtRef for PositiveSamplesAt,
// and prime, the dataset-order firmware priming the record oracles
// share (buildSampleSetRef in frame_test.go, the rolling tests).

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// prime registers every (vendor, firmware version) pair of data with
// the extractor's encoders, visiting records in dataset order. After
// priming, Extract performs only reads on the extractor, so
// BuildSeqSamples can fan extraction out across goroutines; it also fixes the
// first-seen-order codes of registry-unknown versions to dataset order
// rather than extraction order, keeping the encoding independent of
// scheduling. No-op for groups without the firmware feature.
func (e *Extractor) prime(data *dataset.Dataset) {
	if !e.group.Firmware {
		return
	}
	data.Each(func(s *dataset.DriveSeries) {
		for i := range s.Records {
			e.encoder(s.Records[i].Vendor).Encode(s.Records[i].Firmware)
		}
	})
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

// closestRef returns the record of a non-empty series whose day is
// nearest to day, the earlier record winning ties.
func closestRef(s *dataset.DriveSeries, day int) *dataset.Record {
	dist := func(r *dataset.Record) int { return max(r.Day-day, day-r.Day) }
	best := &s.Records[0]
	for i := range s.Records {
		if r := &s.Records[i]; dist(r) < dist(best) {
			best = r
		}
	}
	return best
}

// positiveSamplesAtRef extracts one evaluation sample per faulty drive at
// exactly lookahead days before its labelled failure (nearest record
// within ±tolerance days). Used by the Fig. 19 lookahead sweep: can the
// model already see the failure N days out?
func positiveSamplesAtRef(data *dataset.Dataset, labels labeling.Labels, e *Extractor, lookahead, tolerance int) []ml.Sample {
	var samples []ml.Sample
	for sn, label := range labels {
		series, ok := data.Series(sn)
		if !ok || len(series.Records) == 0 {
			continue
		}
		target := label.FailDay - lookahead
		if target < 0 {
			continue
		}
		rec := closestRef(series, target)
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
