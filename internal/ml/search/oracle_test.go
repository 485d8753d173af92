package search

// The []ml.Sample implementations of grid search, forward selection
// and backward elimination, kept as the oracle the view functions are
// pinned against (viewset_test.go): every *Set function must return
// what its slice counterpart returns on the materialised rows.

import (
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/ml/mltest"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// sampleFold is one cross-validation iteration on sample slices.
type sampleFold struct {
	Train []ml.Sample
	Val   []ml.Sample
}

// timeSeriesCV is the slice fold split the grid-search oracle sweeps:
// sampling.TimeSeriesCVView's folds, materialised. The sampling tests
// pin those folds to the slice time-series CV row for row.
func timeSeriesCV(samples []ml.Sample, k int) ([]sampleFold, error) {
	set, err := ml.FromSamples(samples)
	if err != nil {
		return nil, err
	}
	folds, err := sampling.TimeSeriesCVView(set.All(), k)
	if err != nil {
		return nil, err
	}
	out := make([]sampleFold, len(folds))
	for i, f := range folds {
		out[i] = sampleFold{Train: mltest.Materialize(f.Train), Val: mltest.Materialize(f.Val)}
	}
	return out, nil
}

// GridSearchWorkers is GridSearch with an explicit worker count
// (0 = GOMAXPROCS, 1 = serial). Each (combination, fold) pair trains
// and scores independently — the factory is invoked once per pair so
// trainers are never shared across goroutines — and fold AUCs are
// averaged in fold order, so candidates and scores are identical at
// any worker count.
func GridSearchWorkers(factory Factory, grid Grid, samples []ml.Sample, k, workers int) ([]Candidate, Candidate, error) {
	combos := enumerate(grid)
	if len(combos) == 0 {
		return nil, Candidate{}, fmt.Errorf("search: empty grid")
	}
	folds, err := timeSeriesCV(samples, k)
	if err != nil {
		return nil, Candidate{}, err
	}
	usable := make([]int, 0, len(folds))
	for fi := range folds {
		if bothClasses(folds[fi].Train) && bothClasses(folds[fi].Val) {
			usable = append(usable, fi)
		}
	}

	// Flatten to combo-major (combination, fold) pairs so a slow fold
	// of one combination overlaps with other work.
	type pair struct{ combo, fold int }
	pairs := make([]pair, 0, len(combos)*len(usable))
	for ci := range combos {
		for _, fi := range usable {
			pairs = append(pairs, pair{ci, fi})
		}
	}
	aucs, err := parallel.Map(len(pairs), workers, func(i int) (float64, error) {
		p := pairs[i]
		trainer := factory(combos[p.combo])
		clf, err := trainer.Train(mltest.View(folds[p.fold].Train))
		if err != nil {
			return 0, fmt.Errorf("search: %s on %v: %w", trainer.Name(), combos[p.combo], err)
		}
		val := folds[p.fold].Val
		scores := make([]float64, len(val))
		labels := make([]int, len(val))
		for i := range val {
			scores[i] = clf.PredictProba(val[i].X)
			labels[i] = val[i].Y
		}
		return metrics.AUC(metrics.ROCFromScores(scores, labels)), nil
	})
	if err != nil {
		return nil, Candidate{}, err
	}

	candidates := make([]Candidate, len(combos))
	for ci, params := range combos {
		var sum float64
		// Pairs are combo-major, so this slice walks the combo's folds
		// in fold order — the same summation order as a serial run.
		for pi := ci * len(usable); pi < (ci+1)*len(usable); pi++ {
			sum += aucs[pi]
		}
		score := 0.0
		if len(usable) > 0 {
			score = sum / float64(len(usable))
		}
		candidates[ci] = Candidate{Params: params, Score: score}
	}
	sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].Score > candidates[j].Score })
	return candidates, candidates[0], nil
}

func bothClasses(samples []ml.Sample) bool {
	var neg, pos int
	for i := range samples {
		if samples[i].Y == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg > 0 && pos > 0
}

// validate is ml.ValidateView with both classes required, on a fresh
// set of samples.
func validate(samples []ml.Sample) error {
	set, err := ml.FromSamples(samples)
	if err != nil {
		return err
	}
	return ml.ValidateView(set.All(), true)
}

// mask returns masked copies of samples restricted to subset.
func mask(samples []ml.Sample, subset []int) []ml.Sample {
	return mltest.Materialize(mltest.View(samples).WithCols(subset))
}

// scoreSubset trains on the masked training set and scores the masked
// validation set once, deriving both the AUC and the 0.5-threshold
// confusion matrix from a single prediction pass.
func scoreSubset(trainer ml.Trainer, train, val []ml.Sample, subset []int) (subsetScore, error) {
	clf, err := trainer.Train(mltest.View(mask(train, subset)))
	if err != nil {
		return subsetScore{}, err
	}
	masked := mask(val, subset)
	scores := make([]float64, len(masked))
	labels := make([]int, len(masked))
	var cm metrics.Confusion
	for i := range masked {
		scores[i] = clf.PredictProba(masked[i].X)
		labels[i] = masked[i].Y
		pred := 0
		if scores[i] >= 0.5 {
			pred = 1
		}
		cm.Add(pred, masked[i].Y)
	}
	return subsetScore{auc: metrics.AUC(metrics.ROCFromScores(scores, labels)), cm: cm}, nil
}

// ForwardSelectWorkers is ForwardSelect with an explicit worker count
// (0 = GOMAXPROCS, 1 = serial). Each step's candidate features train
// and score concurrently; ties break toward the lowest feature index,
// so the trajectory is identical at any worker count.
func ForwardSelectWorkers(trainer ml.Trainer, train, val []ml.Sample, names []string, maxFeatures int, minGain float64, workers int) (*SFSResult, error) {
	if err := validate(train); err != nil {
		return nil, fmt.Errorf("search: train: %w", err)
	}
	if err := validate(val); err != nil {
		return nil, fmt.Errorf("search: val: %w", err)
	}
	width := len(train[0].X)
	if len(names) != width {
		return nil, fmt.Errorf("search: %d names for width %d", len(names), width)
	}
	if maxFeatures <= 0 || maxFeatures > width {
		maxFeatures = width
	}

	res := &SFSResult{}
	inSubset := make([]bool, width)
	bestAUC := 0.0

	for len(res.Selected) < maxFeatures {
		cands := make([]int, 0, width-len(res.Selected))
		for f := 0; f < width; f++ {
			if !inSubset[f] {
				cands = append(cands, f)
			}
		}
		if len(cands) == 0 {
			break
		}
		scored, err := parallel.Map(len(cands), workers, func(i int) (subsetScore, error) {
			subset := append(append(make([]int, 0, len(res.Selected)+1), res.Selected...), cands[i])
			s, err := scoreSubset(trainer, train, val, subset)
			if err != nil {
				return subsetScore{}, fmt.Errorf("search: training with %v: %w", subset, err)
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		best := 0
		for i := 1; i < len(scored); i++ {
			if scored[i].auc > scored[best].auc {
				best = i
			}
		}
		if scored[best].auc <= bestAUC+minGain {
			break
		}
		bestAUC = scored[best].auc
		f := cands[best]
		inSubset[f] = true
		res.Selected = append(res.Selected, f)
		res.Names = append(res.Names, names[f])
		res.Steps = append(res.Steps, SFSStep{
			FeatureIndex: f,
			FeatureName:  names[f],
			TPR:          scored[best].cm.TPR(),
			FPR:          scored[best].cm.FPR(),
			AUC:          scored[best].auc,
		})
	}
	if len(res.Selected) == 0 {
		return nil, fmt.Errorf("search: forward selection selected nothing")
	}
	return res, nil
}
