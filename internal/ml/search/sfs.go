package search

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/parallel"
)

// SFSStep records the state after adding one feature during sequential
// forward selection.
type SFSStep struct {
	// FeatureIndex is the selected feature's index in the full vector.
	FeatureIndex int
	// FeatureName is its human-readable name.
	FeatureName string
	// TPR, FPR, AUC are the validation metrics of the model trained on
	// the subset selected so far.
	TPR float64
	FPR float64
	AUC float64
}

// SFSResult is the outcome of a forward-selection run.
type SFSResult struct {
	// Steps is the selection trajectory, one entry per added feature
	// (the series behind the paper's Fig. 17).
	Steps []SFSStep
	// Selected is the chosen feature index subset, in selection order.
	Selected []int
	// Names are the chosen features' names.
	Names []string
}

// subsetScore is one candidate subset's validation result.
type subsetScore struct {
	auc float64
	cm  metrics.Confusion
}

// scoreSubset trains on the masked training set and scores the masked
// validation set once, deriving both the AUC and the 0.5-threshold
// confusion matrix from a single prediction pass.
func scoreSubset(trainer ml.Trainer, train, val []ml.Sample, subset []int) (subsetScore, error) {
	clf, err := trainer.Train(features.Mask(train, subset))
	if err != nil {
		return subsetScore{}, err
	}
	masked := features.Mask(val, subset)
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

// scoreSubsetView is scoreSubset on zero-copy views: the candidate
// subset is a *column* sub-view of the shared arena. A ViewTrainer
// fits what it would fit on the masked rows, binning only the view's
// rows and columns, and its model indexes features globally, so
// validation rows are scored straight out of the arena; other trainers
// train and score on masked copies. Scores — and therefore the
// selection trajectory — match the slice implementation.
func scoreSubsetView(trainer ml.Trainer, train, val ml.View, subset []int) (subsetScore, error) {
	sub := train.WithCols(subset)
	var clf ml.Classifier
	var err error
	vt, fullWidth := trainer.(ml.ViewTrainer)
	if fullWidth {
		clf, err = vt.TrainView(sub)
	} else {
		clf, err = trainer.Train(sub.Materialize())
	}
	if err != nil {
		return subsetScore{}, err
	}
	n := val.Len()
	scores := make([]float64, n)
	labels := make([]int, n)
	var masked []float64
	if !fullWidth {
		masked = make([]float64, len(subset))
	}
	var cm metrics.Confusion
	for i := 0; i < n; i++ {
		x := val.Row(i)
		if !fullWidth {
			for j, c := range subset {
				masked[j] = x[c]
			}
			x = masked
		}
		scores[i] = clf.PredictProba(x)
		labels[i] = val.Y(i)
		pred := 0
		if scores[i] >= 0.5 {
			pred = 1
		}
		cm.Add(pred, labels[i])
	}
	return subsetScore{auc: metrics.AUC(metrics.ROCFromScores(scores, labels)), cm: cm}, nil
}

// ForwardSelectSet is ForwardSelectWorkers on zero-copy SampleSet
// views: every candidate subset trains on a column sub-view of the
// same binned arena instead of re-extracting a masked copy of train
// and validation per feature subset. The greedy trajectory is
// identical to the slice implementation at any worker count.
func ForwardSelectSet(trainer ml.Trainer, train, val ml.View, names []string, maxFeatures int, minGain float64, workers int) (*SFSResult, error) {
	if err := ml.ValidateView(train, true); err != nil {
		return nil, fmt.Errorf("search: train: %w", err)
	}
	if err := ml.ValidateView(val, true); err != nil {
		return nil, fmt.Errorf("search: val: %w", err)
	}
	width := train.Width()
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
			s, err := scoreSubsetView(trainer, train, val, subset)
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

// ForwardSelect implements the sequential forward selection algorithm
// the paper cites (Whitney 1971): starting from the empty subset, it
// greedily adds the feature whose addition maximises validation AUC,
// stopping when no candidate improves it by more than minGain or when
// maxFeatures is reached (0 = no limit). Candidate features are
// evaluated on GOMAXPROCS goroutines; use ForwardSelectWorkers to pin
// the worker count.
func ForwardSelect(trainer ml.Trainer, train, val []ml.Sample, names []string, maxFeatures int, minGain float64) (*SFSResult, error) {
	return ForwardSelectWorkers(trainer, train, val, names, maxFeatures, minGain, 0)
}

// ForwardSelectWorkers is ForwardSelect with an explicit worker count
// (0 = GOMAXPROCS, 1 = serial). Each step's candidate features train
// and score concurrently; ties break toward the lowest feature index,
// so the trajectory is identical at any worker count.
func ForwardSelectWorkers(trainer ml.Trainer, train, val []ml.Sample, names []string, maxFeatures int, minGain float64, workers int) (*SFSResult, error) {
	if err := ml.ValidateSamples(train, true); err != nil {
		return nil, fmt.Errorf("search: train: %w", err)
	}
	if err := ml.ValidateSamples(val, true); err != nil {
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
