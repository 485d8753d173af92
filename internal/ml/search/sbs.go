package search

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/parallel"
)

// BackwardEliminateSet is the mirror image of ForwardSelectSet:
// starting from the full feature set, it greedily removes the feature
// whose removal *least* hurts (or most helps) validation AUC, stopping
// when any further removal would cost more than maxLoss of AUC or when
// minFeatures is reached. Where SFS answers "which few features carry
// the signal", SBS answers "which features can a deployment drop" —
// useful when client-side collection of a channel (say, BSOD parsing)
// has a real cost. Every drop candidate trains on a column sub-view of
// the shared arena; each step's candidates run on workers goroutines
// (0 = GOMAXPROCS, 1 = serial) and ties break toward the earliest
// candidate, so the elimination order is identical at any worker
// count.
func BackwardEliminateSet(trainer ml.Trainer, train, val ml.View, names []string, minFeatures int, maxLoss float64, workers int) (*SFSResult, error) {
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
	if minFeatures < 1 {
		minFeatures = 1
	}
	if minFeatures > width {
		return nil, fmt.Errorf("search: minFeatures %d exceeds width %d", minFeatures, width)
	}

	current := make([]int, width)
	for i := range current {
		current[i] = i
	}

	full, err := scoreSubsetView(trainer, train, val, current)
	if err != nil {
		return nil, fmt.Errorf("search: full set: %w", err)
	}
	baseAUC := full.auc

	res := &SFSResult{}
	for len(current) > minFeatures {
		scored, err := parallel.Map(len(current), workers, func(di int) (subsetScore, error) {
			subset := make([]int, 0, len(current)-1)
			subset = append(subset, current[:di]...)
			subset = append(subset, current[di+1:]...)
			s, err := scoreSubsetView(trainer, train, val, subset)
			if err != nil {
				return subsetScore{}, fmt.Errorf("search: dropping %s: %w", names[current[di]], err)
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		bestDrop := 0
		for i := 1; i < len(scored); i++ {
			if scored[i].auc > scored[bestDrop].auc {
				bestDrop = i
			}
		}
		if scored[bestDrop].auc < baseAUC-maxLoss {
			break
		}
		bestAUC := scored[bestDrop].auc
		bestCM := scored[bestDrop].cm
		dropped := current[bestDrop]
		current = append(current[:bestDrop], current[bestDrop+1:]...)
		res.Steps = append(res.Steps, SFSStep{
			FeatureIndex: dropped,
			FeatureName:  names[dropped],
			TPR:          bestCM.TPR(),
			FPR:          bestCM.FPR(),
			AUC:          bestAUC,
		})
		if bestAUC > baseAUC {
			baseAUC = bestAUC
		}
	}
	res.Selected = append([]int(nil), current...)
	for _, i := range current {
		res.Names = append(res.Names, names[i])
	}
	return res, nil
}
