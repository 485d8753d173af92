package search

import (
	"fmt"

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

// scoreSubsetView trains on one candidate feature subset and scores
// the validation rows once, deriving both the AUC and the
// 0.5-threshold confusion matrix from a single prediction pass. The
// subset is a *column* sub-view of the shared arena: the trainer must
// honour column sub-views (the tree ensembles do, binning only the
// view's rows and columns), and its model indexes features globally,
// so the full-width validation rows valXs (labels ys) are scored
// straight out of the arena, through ml.ScoreRuns on one worker.
func scoreSubsetView(trainer ml.Trainer, train ml.View, valXs [][]float64, ys []int, subset []int) (subsetScore, error) {
	clf, err := trainer.Train(train.WithCols(subset))
	if err != nil {
		return subsetScore{}, err
	}
	scores := make([]float64, len(valXs))
	ml.ScoreRuns(clf, valXs, scores, 1)
	var cm metrics.Confusion
	for i, s := range scores {
		pred := 0
		if s >= 0.5 {
			pred = 1
		}
		cm.Add(pred, ys[i])
	}
	return subsetScore{auc: metrics.AUC(metrics.ROCFromScores(scores, ys)), cm: cm}, nil
}

// ForwardSelectSet implements the sequential forward selection
// algorithm the paper cites (Whitney 1971): starting from the empty
// subset, it greedily adds the feature whose addition maximises
// validation AUC, stopping when no candidate improves it by more than
// minGain or when maxFeatures is reached (0 = no limit). Every
// candidate subset trains on a column sub-view of the shared arena, so
// no masked copy of train and validation is made per subset; trainer
// must therefore accept column sub-views (the tree ensembles do). Each
// step's candidates train and score on workers goroutines
// (0 = GOMAXPROCS, 1 = serial); ties break toward the lowest feature
// index, so the trajectory is identical at any worker count.
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

	// Read the validation rows and labels once, in arena (drive)
	// order: that is the order ml.ScoreRuns is fast on, and neither the
	// AUC (tied scores form one group) nor the confusion counts depend
	// on row order.
	sorted, _ := val.InArenaOrder()
	valXs := sorted.Xs()
	valYs := make([]int, sorted.Len())
	for i := range valYs {
		valYs[i] = sorted.Y(i)
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
			s, err := scoreSubsetView(trainer, train, valXs, valYs, subset)
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
