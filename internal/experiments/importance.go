package experiments

import (
	"fmt"
	"sort"

	"repro/internal/features"
	"repro/internal/ml/forest"
	"repro/internal/sampling"
)

// ImportanceResult complements Fig. 17: the random forest's
// mean-decrease-in-impurity feature importance over the SFWB pool. The
// paper's feature-selection discussion says Available Spare Threshold,
// Media/Data-Integrity errors, power cycles, W_11, W_49, W_51, W_161,
// B_50, and B_7A deserve special attention (and that Available Spare
// Threshold does not) — importance ranks make the same point without a
// greedy search.
type ImportanceResult struct {
	// Ranked pairs, most important first.
	Names  []string
	Scores []float64
}

// Importance trains the standard forest on vendor I and ranks features.
func (c *Context) Importance() (*ImportanceResult, error) {
	train, _, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	train, err = sampling.UnderSampleView(train, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	clf, err := (&forest.Trainer{Trees: 100, MaxDepth: 12, Seed: p.Config.Seed}).Train(train)
	if err != nil {
		return nil, err
	}
	imp := clf.(*forest.Model).FeatureImportance()
	names := p.Extractor.Names()
	if len(imp) != len(names) {
		return nil, fmt.Errorf("experiments: %d importances for %d features", len(imp), len(names))
	}
	order := make([]int, len(imp))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return imp[order[a]] > imp[order[b]] })

	res := &ImportanceResult{}
	for _, i := range order {
		res.Names = append(res.Names, names[i])
		res.Scores = append(res.Scores, imp[i])
	}
	return res, nil
}

// String renders the top of the ranking.
func (r *ImportanceResult) String() string {
	t := newTable("RF feature importance (mean decrease in impurity, vendor I, SFWB)",
		"Rank", "Feature", "Importance")
	for i := range r.Names {
		if i >= 15 && r.Scores[i] < 0.005 {
			t.addRow("…", fmt.Sprintf("(%d more below 0.5%%)", len(r.Names)-i), "")
			break
		}
		t.addRow(fmt.Sprint(i+1), r.Names[i], f4(r.Scores[i]))
	}
	return t.String()
}
