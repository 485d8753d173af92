package core

// The []ml.Sample implementation of Train's modelling stages, kept as
// the oracle the view pipeline is pinned against: trainSlices with its
// slice calibration (calibrateThreshold), slice evaluation
// (evaluateSamplesAt) and slice sampling primitives. The sampling
// primitives are copies of the oracles in the sampling package's
// tests, which pin the view primitives to them; they are repeated here
// because test files cannot be shared across packages.

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

// evaluateSamplesAt scores every sample at the given decision threshold
// and aggregates at both granularities. The scoring pass fans out
// across GOMAXPROCS goroutines; aggregation is serial and in sample
// order, so the evaluation is identical at any parallelism.
func evaluateSamplesAt(clf ml.Classifier, samples []ml.Sample, threshold float64) Evaluation {
	scores := batchScores(clf, samples, 0)
	return evaluateScores(scores, threshold, func(i int) (int, string) { return samples[i].Y, samples[i].SN })
}

// batchScores scores every sample with clf through ml.ScoreBatch, in
// sample order.
func batchScores(clf ml.Classifier, samples []ml.Sample, workers int) []float64 {
	xs := make([][]float64, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	out := make([]float64, len(samples))
	ml.ScoreBatch(clf, xs, out, workers)
	return out
}

// trainSlices is Train on []ml.Sample slices: the extracted set's rows
// are materialised and every later stage runs on the slices.
func trainSlices(p *Prepared) (*Model, *TrainReport, error) {
	cfg := p.Config
	report := &TrainReport{Prepared: p}

	start := time.Now()
	set, err := p.BuildSampleSet()
	if err != nil {
		return nil, nil, err
	}
	samples := mltest.Materialize(set.All())
	report.SampleTime = time.Since(start)

	var train, test []ml.Sample
	if cfg.RandomSegmentation {
		train, test = randomSplit(samples, 1-cfg.TrainFrac, cfg.Seed)
	} else {
		train, test = splitFraction(samples, cfg.TrainFrac)
	}
	trainFull := train
	train, err = underSample(train, cfg.NegativeRatio, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if !bothClasses(train) {
		return nil, nil, fmt.Errorf("core: training set needs both classes")
	}
	report.TrainSamples = len(train)
	report.TestSamples = len(test)
	_, report.TrainPos = classCounts(train)
	_, report.TestPos = classCounts(test)

	width := p.Extractor.Width()
	trainer, err := cfg.Algorithm.newTrainer(cfg.Seed, width, cfg.SeqLen, cfg.Workers, cfg.Bins)
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	threshold := 0.5
	if !cfg.FixedThreshold {
		if t, err := calibrateThreshold(trainer, trainFull, cfg); err == nil {
			threshold = t
		}
	}
	clf, err := trainer.Train(mltest.View(train))
	if err != nil {
		return nil, nil, err
	}
	report.TrainTime = time.Since(start)

	m := &Model{
		Config:      cfg,
		Classifier:  clf,
		TrainerName: trainer.Name(),
		Width:       width,
		Threshold:   threshold,
	}
	if len(train) > 0 {
		last := 0
		for i := range train {
			if train[i].Day > last {
				last = train[i].Day
			}
		}
		m.TrainEndDay = last
	}

	start = time.Now()
	if len(test) > 0 {
		report.Eval = evaluateSamplesAt(clf, test, threshold)
	}
	report.EvalTime = time.Since(start)
	return m, report, nil
}

// calibrateThreshold picks the decision threshold on pooled time-series
// cross-validation folds of the *full-prevalence* training window: each
// fold's training part is under-sampled exactly as the final model's
// is, but validation keeps the natural class balance so the FPR
// estimate is trustworthy. The operating point is chosen without
// touching test data.
func calibrateThreshold(trainer ml.Trainer, trainFull []ml.Sample, cfg Config) (float64, error) {
	folds, err := timeSeriesCV(trainFull, cfg.CVFolds)
	if err != nil {
		return 0, err
	}
	var scores []float64
	var labels []int
	for _, fold := range folds {
		tr, err := underSample(fold.Train, cfg.NegativeRatio, cfg.Seed)
		if err != nil {
			return 0, err
		}
		if !bothClasses(tr) || !bothClasses(fold.Val) {
			continue
		}
		clf, err := trainer.Train(mltest.View(tr))
		if err != nil {
			return 0, err
		}
		scores = append(scores, batchScores(clf, fold.Val, cfg.Workers)...)
		for i := range fold.Val {
			labels = append(labels, fold.Val[i].Y)
		}
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("core: no usable calibration folds")
	}
	return pickThreshold(scores, labels), nil
}

// classCounts returns the number of negative and positive samples.
func classCounts(samples []ml.Sample) (neg, pos int) {
	for i := range samples {
		if samples[i].Y == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

func bothClasses(samples []ml.Sample) bool {
	neg, pos := classCounts(samples)
	return neg > 0 && pos > 0
}

// sortByDay orders samples chronologically (stable on equal days).
func sortByDay(samples []ml.Sample) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Day < samples[j].Day })
}

// shuffle permutes samples deterministically with the given seed.
func shuffle(samples []ml.Sample, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
}

// underSample balances classes by keeping every positive sample and a
// uniform random subset of negatives sized ratio× the positive count
// (the paper uses 3:1 or 5:1). When there are fewer negatives than the
// target, all are kept. The input order of the survivors is preserved,
// keeping downstream time-based splits valid.
func underSample(samples []ml.Sample, ratio float64, seed int64) ([]ml.Sample, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("core: ratio %g must be > 0", ratio)
	}
	neg, pos := classCounts(samples)
	target := int(float64(pos) * ratio)
	if pos == 0 || neg <= target {
		out := make([]ml.Sample, len(samples))
		copy(out, samples)
		return out, nil
	}
	// Choose the surviving negative positions without replacement.
	negPositions := make([]int, 0, neg)
	for i := range samples {
		if samples[i].Y == 0 {
			negPositions = append(negPositions, i)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(negPositions), func(i, j int) {
		negPositions[i], negPositions[j] = negPositions[j], negPositions[i]
	})
	keep := make(map[int]bool, target)
	for _, p := range negPositions[:target] {
		keep[p] = true
	}
	out := make([]ml.Sample, 0, pos+target)
	for i := range samples {
		if samples[i].Y == 1 || keep[i] {
			out = append(out, samples[i])
		}
	}
	return out, nil
}

// splitFraction segments chronologically by sample count: the earliest
// frac of samples (after stable day ordering) train, the rest test.
func splitFraction(samples []ml.Sample, frac float64) (train, test []ml.Sample) {
	sorted := make([]ml.Sample, len(samples))
	copy(sorted, samples)
	sortByDay(sorted)
	cut := int(float64(len(sorted)) * frac)
	return sorted[:cut], sorted[cut:]
}

// randomSplit is the conventional (non-time-aware) m:n split the paper
// argues against; it is kept for the segmentation ablation bench.
func randomSplit(samples []ml.Sample, testFrac float64, seed int64) (train, test []ml.Sample) {
	shuffled := make([]ml.Sample, len(samples))
	copy(shuffled, samples)
	shuffle(shuffled, seed)
	cut := len(shuffled) - int(float64(len(shuffled))*testFrac)
	return shuffled[:cut], shuffled[cut:]
}

// fold is one cross-validation iteration.
type fold struct {
	Train []ml.Sample
	Val   []ml.Sample
}

// timeSeriesCV implements the paper's time-series cross-validation
// (Fig. 8(b)(2)): samples are ordered chronologically and divided into
// 2k contiguous subsets; iteration i trains on subsets [i, i+k) and
// validates on subset i+k, so training data always precedes validation
// data. It returns k folds.
func timeSeriesCV(samples []ml.Sample, k int) ([]fold, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k %d must be ≥ 1", k)
	}
	if len(samples) < 2*k {
		return nil, fmt.Errorf("core: %d samples cannot form 2k=%d subsets", len(samples), 2*k)
	}
	sorted := make([]ml.Sample, len(samples))
	copy(sorted, samples)
	sortByDay(sorted)

	subsets := chunk(sorted, 2*k)
	folds := make([]fold, 0, k)
	for i := 0; i < k; i++ {
		var tr []ml.Sample
		for j := i; j < i+k; j++ {
			tr = append(tr, subsets[j]...)
		}
		folds = append(folds, fold{Train: tr, Val: subsets[i+k]})
	}
	return folds, nil
}

// chunk divides samples into n contiguous near-equal subsets.
func chunk(samples []ml.Sample, n int) [][]ml.Sample {
	out := make([][]ml.Sample, n)
	base := len(samples) / n
	rem := len(samples) % n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = samples[start : start+size]
		start += size
	}
	return out
}
