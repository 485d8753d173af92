// Package ml defines the shared sample, classifier, and trainer types
// used by every learning algorithm in the repository. The concrete
// algorithms live in subpackages (bayes, svm, tree, forest, gbdt, nn)
// and are all stdlib-only, from-scratch implementations.
package ml

// Sample is one labelled observation: a dense feature vector plus the
// binary health label. Training reads SampleSet views; Sample is the
// row type of hand-built fixtures (FromSamples) and of per-drive
// evaluation samples (features.PositiveSamplesAt).
type Sample struct {
	// X is the feature vector; all samples in a set share one length.
	X []float64
	// Y is the label: 1 for faulty (positive), 0 for healthy.
	Y int
	// SN identifies the drive the sample came from, for drive-level
	// aggregation and leakage-free splitting.
	SN string
	// Day is the observation day, for time-based segmentation.
	Day int
}

// Classifier scores feature vectors.
type Classifier interface {
	// PredictProba returns the estimated probability that x is a
	// positive (faulty) sample, in [0, 1].
	PredictProba(x []float64) float64
}

// Predict applies the conventional 0.5 threshold to c's probability.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Trainer builds a classifier from a view of labelled rows.
type Trainer interface {
	// Train fits a model on the view's rows. Implementations must not
	// retain or mutate the view's set. A trainer that honours a column
	// sub-view (the tree ensembles) returns a model that indexes
	// features globally, so it scores full-width arena rows; the
	// others reject one.
	Train(v View) (Classifier, error)
	// Name identifies the algorithm (e.g. "RF", "GBDT").
	Name() string
}
