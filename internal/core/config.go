// Package core implements MFPA, the paper's multidimensional-feature
// failure prediction approach, end to end: discontinuity optimisation,
// failure-time identification, time-series-aware sampling, feature
// extraction over the SFWB groups, model training across five ML
// algorithm families, and per-sample plus per-drive evaluation.
package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/nn"
	"repro/internal/ml/svm"
)

// Algorithm names one of the paper's five candidate ML algorithms.
type Algorithm string

// The algorithms evaluated in Figs. 10/14.
const (
	AlgoBayes   Algorithm = "Bayes"
	AlgoSVM     Algorithm = "SVM"
	AlgoRF      Algorithm = "RF"
	AlgoGBDT    Algorithm = "GBDT"
	AlgoCNNLSTM Algorithm = "CNN_LSTM"
)

// Algorithms returns the paper's five algorithms in Fig. 10 order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoBayes, AlgoSVM, AlgoRF, AlgoGBDT, AlgoCNNLSTM}
}

// Sequential reports whether the algorithm consumes sequence samples
// (windows of consecutive records) rather than flat per-record vectors.
func (a Algorithm) Sequential() bool { return a == AlgoCNNLSTM }

// newTrainer instantiates the algorithm with the repository's default
// hyper-parameters (chosen by the grid-search experiment). width and
// seqLen parameterise the CNN_LSTM input shape; workers bounds the
// training parallelism of the ensemble learners; bins is the tree
// ensembles' histogram bin budget (0 = 256 bins).
func (a Algorithm) newTrainer(seed int64, width, seqLen, workers, bins int) (ml.Trainer, error) {
	switch a {
	case AlgoBayes:
		return &bayes.Trainer{}, nil
	case AlgoSVM:
		return &svm.Trainer{Lambda: 1e-4, Epochs: 30, Seed: seed, Standardize: true}, nil
	case AlgoRF:
		return &forest.Trainer{Trees: 100, MaxDepth: 12, Seed: seed, Parallelism: workers, Bins: bins}, nil
	case AlgoGBDT:
		return &gbdt.Trainer{Rounds: 120, LearningRate: 0.1, MaxDepth: 4, Subsample: 0.8, Seed: seed, Bins: bins}, nil
	case AlgoCNNLSTM:
		return &nn.CNNLSTMTrainer{
			SeqLen:   seqLen,
			Features: width,
			Filters:  16,
			Kernel:   3,
			Hidden:   32,
			Epochs:   25,
			Batch:    32,
			Seed:     seed,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", a)
	}
}

// Config parameterises one MFPA pipeline run.
type Config struct {
	// Vendor restricts the pipeline to one vendor's drives ("" = all).
	// The paper trains per-vendor models rather than per-series ones.
	Vendor string
	// Group is the feature-group set (Table V). Zero value is invalid;
	// use features.GroupSFWB for the paper's best configuration.
	Group features.Group
	// Algorithm selects the learner; empty selects RF (the winner).
	Algorithm Algorithm
	// Theta is the failure-time identification threshold in days;
	// 0 selects the paper's 7.
	Theta int
	// GapPolicy is the discontinuity optimisation; zero value selects
	// the paper's drop ≥ 10 / fill ≤ 3.
	GapPolicy dataset.GapPolicy
	// PositiveWindowDays is the faulty lookback window; 0 selects 7.
	PositiveWindowDays int
	// NegativeRatio is the training under-sampling ratio (negatives per
	// positive); 0 selects 3.
	NegativeRatio float64
	// TrainFrac is the chronological fraction of samples forming the
	// learning window LW; 0 selects 0.6.
	TrainFrac float64
	// SeqLen is the CNN_LSTM window length in records; 0 selects 5.
	SeqLen int
	// Seed drives all stochastic stages.
	Seed int64
	// Registries supplies per-vendor firmware ladders for label
	// encoding; nil falls back to first-seen-order encoding.
	Registries map[string]*firmware.Registry
	// SkipClean disables the discontinuity optimisation (ablation).
	SkipClean bool
	// SkipCumulate disables the cumulative W/B transform (ablation).
	SkipCumulate bool
	// RandomSegmentation replaces the timepoint-based split with the
	// conventional shuffled split (ablation, Fig. 8(a)(1)).
	RandomSegmentation bool
	// FixedThreshold disables validation-based threshold calibration
	// and uses the conventional 0.5 decision threshold. By default the
	// pipeline picks the Youden-optimal threshold on time-series
	// cross-validation folds of the training window.
	FixedThreshold bool
	// CVFolds is the k of the time-series cross-validation used for
	// threshold calibration (and exposed for grid search); 0 selects 3.
	CVFolds int
	// Workers bounds the goroutines of every parallelised pipeline
	// stage: discontinuity cleaning, feature extraction, batch scoring,
	// and tree-ensemble training. 0 selects GOMAXPROCS; 1 pins the
	// whole pipeline to serial execution for debugging. Outputs are
	// identical at any setting — every fan-out merges in deterministic
	// order and draws randomness from pre-assigned seeds.
	Workers int
	// Bins is the per-feature bin budget of the histogram training
	// engine behind the tree ensembles (RF, GBDT): 0 selects 256,
	// positive values are clamped to at most 256, and a negative value
	// fails validation.
	// Each fit bins only its own training rows. Binning quantises split
	// thresholds but leaves them exact while those rows have no more
	// distinct values per feature than bins.
	Bins int
}

// DefaultConfig returns the paper's best configuration: per-vendor RF
// on SFWB with θ=7, 7-day positive window, 3:1 under-sampling.
func DefaultConfig(vendor string) Config {
	return Config{
		Vendor:    vendor,
		Group:     features.GroupSFWB,
		Algorithm: AlgoRF,
		Seed:      1,
	}
}

// WithDefaults materialises the documented zero-value defaults. Two
// configs that differ only by a zero field and its default describe the
// same run.
func (c Config) WithDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgoRF
	}
	if c.Theta == 0 {
		c.Theta = labeling.DefaultTheta
	}
	if c.GapPolicy == (dataset.GapPolicy{}) {
		c.GapPolicy = dataset.DefaultGapPolicy()
	}
	if c.PositiveWindowDays == 0 {
		c.PositiveWindowDays = 7
	}
	if c.NegativeRatio == 0 {
		c.NegativeRatio = 3
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.6
	}
	if c.SeqLen == 0 {
		c.SeqLen = 5
	}
	if c.CVFolds == 0 {
		c.CVFolds = 3
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Group.Empty() {
		return fmt.Errorf("core: empty feature group")
	}
	if c.TrainFrac <= 0 || c.TrainFrac >= 1 {
		return fmt.Errorf("core: TrainFrac %g must be in (0,1)", c.TrainFrac)
	}
	if c.NegativeRatio <= 0 {
		return fmt.Errorf("core: NegativeRatio %g must be > 0", c.NegativeRatio)
	}
	if c.PositiveWindowDays < 1 {
		return fmt.Errorf("core: PositiveWindowDays %d must be ≥ 1", c.PositiveWindowDays)
	}
	if c.Theta < 0 {
		return fmt.Errorf("core: Theta %d must be ≥ 0", c.Theta)
	}
	if c.Bins < 0 {
		return fmt.Errorf("core: Bins %d must be ≥ 0 (0 = 256)", c.Bins)
	}
	switch c.Algorithm {
	case AlgoBayes, AlgoSVM, AlgoRF, AlgoGBDT, AlgoCNNLSTM:
	default:
		return fmt.Errorf("core: unknown algorithm %q", c.Algorithm)
	}
	return nil
}
