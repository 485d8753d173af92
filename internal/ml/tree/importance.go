package tree

// Feature importance by mean decrease in impurity (Breiman): each
// split's weighted SSE reduction is credited to its feature. The grower
// records per-node gains during growth so importance costs nothing at
// prediction time.

// FeatureImportance returns the total impurity decrease credited to
// each feature by this tree, indexed by feature. The vector is NOT
// normalised; ensemble callers sum across trees and normalise once.
func (t *Classifier) FeatureImportance() []float64 {
	return importanceOf(t.nodes, t.width)
}

func importanceOf(nodes []node, width int) []float64 {
	imp := make([]float64, width)
	for i := range nodes {
		if nodes[i].feature >= 0 {
			imp[nodes[i].feature] += nodes[i].gain
		}
	}
	return imp
}
