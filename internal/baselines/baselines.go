// Package baselines implements the comparison points of the paper's
// Fig. 18: the vendor SMART-threshold detector that ships with consumer
// drives, and simplified re-implementations of the published SSD
// failure predictors [19]–[22], each restricted to the feature families
// its original paper used. All of them run on the same prepared
// samples as MFPA, so differences reflect features and algorithms, not
// data handling.
package baselines

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/nn"
	"repro/internal/ml/svm"
	"repro/internal/smartattr"
)

// ThresholdDetector is the classic vendor SMART-threshold alarm
// (Section II: 3–10% TPR at ~0.1% FPR): it flags a sample when any
// thresholded SMART attribute is in its alarm region. It implements
// ml.Classifier over feature vectors whose leading 16 entries are the
// SMART attributes (any group with SMART set).
type ThresholdDetector struct{}

// PredictProba implements ml.Classifier: 1 when any vendor threshold is
// exceeded, else 0.
func (ThresholdDetector) PredictProba(x []float64) float64 {
	if len(x) < smartattr.Count {
		return 0
	}
	var v smartattr.Values
	copy(v[:], x[:smartattr.Count])
	if v.ExceedsThreshold() {
		return 1
	}
	return 0
}

// Baseline couples a named feature group with a trainer, mirroring one
// related-work system.
type Baseline struct {
	// Name identifies the system in reports.
	Name string
	// Citation is the related-work reference the baseline approximates.
	Citation string
	// Group is the feature family the original system used.
	Group features.Group
	// NewTrainer constructs the algorithm the original system used.
	NewTrainer func(seed int64) ml.Trainer
}

// All returns the Fig. 18 comparison set. MFPA itself (RF on SFWB) is
// supplied by the core package; these are the others.
func All() []Baseline {
	return []Baseline{
		{
			Name:     "ErrorLog-RF",
			Citation: "Jacob et al., SC'19 — SSD failures in the field (error-log features)",
			// The SC'19 models consume drive error logs only; our
			// closest projection is the SMART error/reliability subset,
			// which errorLogRF selects from the S group.
			Group:      features.GroupS,
			NewTrainer: func(seed int64) ml.Trainer { return &errorLogRF{seed: seed} },
		},
		{
			Name:       "SMART-Bayes",
			Citation:   "Chakraborttii et al., SoCC'20 — interpretable SMART-based prediction",
			Group:      features.GroupS,
			NewTrainer: func(seed int64) ml.Trainer { return &bayes.Trainer{} },
		},
		{
			Name:     "SMART-SVM",
			Citation: "Zhang et al., TPDS'20 — transfer-learning minority prediction (SVM family)",
			Group:    features.GroupS,
			NewTrainer: func(seed int64) ml.Trainer {
				return &svm.Trainer{Lambda: 1e-4, Epochs: 30, Seed: seed, Standardize: true, ClassWeight: 2}
			},
		},
		{
			Name:     "SMART-LSTM",
			Citation: "Pinciroli et al., TDSC'21 — lifespan/failure prediction (recurrent family)",
			Group:    features.GroupS,
			NewTrainer: func(seed int64) ml.Trainer {
				return &nn.CNNLSTMTrainer{
					SeqLen:   1,
					Features: 16,
					Filters:  8,
					Kernel:   1,
					Hidden:   16,
					Epochs:   20,
					Seed:     seed,
				}
			},
		},
	}
}

// errorLogRF is a random forest restricted to the reliability/error
// subset of SMART (media errors, error-log entries, critical warning,
// spare, unsafe shutdowns), approximating an error-log-only model.
type errorLogRF struct {
	seed int64
}

// errorLogFeatures are the S-group indexes retained by the model.
var errorLogFeatures = []int{
	smartattr.CriticalWarning.Index(),
	smartattr.AvailableSpare.Index(),
	smartattr.UnsafeShutdowns.Index(),
	smartattr.MediaErrors.Index(),
	smartattr.ErrorLogEntries.Index(),
}

// Name implements ml.Trainer.
func (t *errorLogRF) Name() string { return "ErrorLog-RF" }

// Train implements ml.Trainer: a forest on the view's error-log
// columns. The forest re-indexes its splits to global features, so the
// model scores full-width rows directly.
func (t *errorLogRF) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	if v.Cols() != nil {
		return nil, fmt.Errorf("baselines: error-log model needs a full-width view")
	}
	if v.Width() < smartattr.Count {
		return nil, fmt.Errorf("baselines: error-log model needs the SMART block, width %d", v.Width())
	}
	inner := &forest.Trainer{Trees: 100, MaxDepth: 10, Seed: t.seed}
	return inner.Train(v.WithCols(errorLogFeatures))
}
