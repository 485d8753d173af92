package experiments

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/search"
	"repro/internal/sampling"
)

// GridSearchResult reproduces the paper's Section III-C(4): grid search
// over hyper-parameters driven by time-series cross-validation, for the
// two tree ensembles (the paper names maximum tree depth and max
// features for RF explicitly).
type GridSearchResult struct {
	RF   []search.Candidate
	GBDT []search.Candidate
	// BestRF and BestGBDT are the winning grid points.
	BestRF   search.Candidate
	BestGBDT search.Candidate
}

// GridSearch sweeps the RF and GBDT grids on vendor I's training
// window. Both sweeps run on zero-copy views of the shared sample set;
// every (combination, fold) pair bins only its own fold's training
// rows, so no fold's split candidates see its validation rows.
func (c *Context) GridSearch() (*GridSearchResult, error) {
	train, _, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	train, err = sampling.UnderSampleView(train, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	seed := p.Config.Seed

	rfFactory := func(params map[string]float64) ml.Trainer {
		return &forest.Trainer{
			Trees:       40,
			MaxDepth:    int(params["max_depth"]),
			MaxFeatures: int(params["max_features"]),
			Seed:        seed,
		}
	}
	rfGrid := search.Grid{
		"max_depth":    {6, 12, 18},
		"max_features": {-1, 12}, // -1 = √width
	}
	rfCandidates, rfBest, err := search.GridSearchSet(rfFactory, rfGrid, train, p.Config.CVFolds, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: RF grid: %w", err)
	}

	gbdtFactory := func(params map[string]float64) ml.Trainer {
		return &gbdt.Trainer{
			Rounds:       60,
			LearningRate: params["learning_rate"],
			MaxDepth:     int(params["max_depth"]),
			Seed:         seed,
		}
	}
	gbdtGrid := search.Grid{
		"learning_rate": {0.05, 0.2},
		"max_depth":     {3, 5},
	}
	gbdtCandidates, gbdtBest, err := search.GridSearchSet(gbdtFactory, gbdtGrid, train, p.Config.CVFolds, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: GBDT grid: %w", err)
	}

	return &GridSearchResult{
		RF:       rfCandidates,
		GBDT:     gbdtCandidates,
		BestRF:   rfBest,
		BestGBDT: gbdtBest,
	}, nil
}

// String renders both sweeps, best first.
func (r *GridSearchResult) String() string {
	t := newTable("Grid search with time-series CV (vendor I, SFWB)",
		"Model", "Parameters", "Mean val AUC")
	for _, cand := range r.RF {
		t.addRow("RF", fmt.Sprintf("%v", cand.Params), f4(cand.Score))
	}
	for _, cand := range r.GBDT {
		t.addRow("GBDT", fmt.Sprintf("%v", cand.Params), f4(cand.Score))
	}
	return t.String()
}
