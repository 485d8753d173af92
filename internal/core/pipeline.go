package core

import (
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/parallel"
	"repro/internal/sampling"
	"repro/internal/ticket"
)

// Prepared is the output of the preprocessing stages: a cleaned,
// cumulated, vendor-filtered telemetry frame with resolved failure
// labels and a fitted extractor — everything model training consumes.
// Preparing once and training several models on it is the normal
// experiment flow.
type Prepared struct {
	Config Config
	// Frame is the prepared telemetry. PrepareFrame fills it; on a
	// TrainReport from TrainOnFrame, which streams the preparation into
	// extraction without materialising it, it is nil, and the other
	// fields are filled as PrepareFrame would fill them.
	Frame      *dataset.Frame
	Labels     labeling.Labels
	Extractor  *features.Extractor
	CleanStats dataset.CleanStats
	LabelStats labeling.Stats
	// Timing of the preprocessing stages (the Fig. 20 overhead rows).
	// CleanTime covers the drop/fill plan, plus writing the prepared
	// frame where one is materialised.
	CleanTime   time.Duration
	LabelTime   time.Duration
	RecordCount int
}

// PrepareFrame runs MFPA's data stages on columnar telemetry: vendor
// filter as a zero-copy drive-range view, the drop/fill plan
// (dataset.NewPlan), failure-time identification off the plan's
// prepared day column, extractor construction, and last the fused
// discontinuity-optimisation + cumulative W/B pass writing the
// prepared frame (one traversal per drive).
func PrepareFrame(f *dataset.Frame, tickets *ticket.Store, cfg Config) (*Prepared, error) {
	p, plan, err := prepare(f, tickets, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if p.Frame, err = plan.Frame(); err != nil {
		return nil, err
	}
	p.CleanTime += time.Since(start)
	return p, nil
}

// prepare runs the data stages that need no prepared rows: vendor
// view, drop/fill plan, labels off the plan's day column, extractor.
func prepare(f *dataset.Frame, tickets *ticket.Store, cfg Config) (*Prepared, *dataset.Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.WithDefaults()

	if cfg.Vendor != "" {
		f = f.FilterVendor(cfg.Vendor)
		if f.Drives() == 0 {
			return nil, nil, fmt.Errorf("core: no drives for vendor %q", cfg.Vendor)
		}
	}

	p := &Prepared{Config: cfg}
	start := time.Now()
	plan, err := dataset.NewPlan(f, dataset.PipelineOptions{
		Policy:       cfg.GapPolicy,
		SkipClean:    cfg.SkipClean,
		SkipCumulate: cfg.SkipCumulate,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	p.CleanStats = plan.Stats()
	p.CleanTime = time.Since(start)
	p.RecordCount = plan.Len()

	start = time.Now()
	labels, err := labeling.Identify(plan, tickets, cfg.Theta)
	if err != nil {
		return nil, nil, err
	}
	p.Labels = labels
	p.LabelStats = labeling.Summarise(labels)
	p.LabelTime = time.Since(start)

	ext, err := features.NewExtractor(cfg.Group, cfg.Registries)
	if err != nil {
		return nil, nil, err
	}
	p.Extractor = ext
	return p, plan, nil
}

// With returns a Prepared for cfg that shares p's frame, labels and
// preparation stats, so one preparation serves every feature group and
// modelling knob. cfg may differ from p.Config only in fields the data
// stages ignore (Group, Algorithm, NegativeRatio, PositiveWindowDays,
// RandomSegmentation, FixedThreshold, TrainFrac, CVFolds, SeqLen, Bins,
// Seed, Workers, Registries); configs are compared after defaulting. A
// change to Vendor, GapPolicy, SkipClean, SkipCumulate or Theta is an
// error: it needs its own PrepareFrame. The extractor is shared unless
// the group or the firmware registries change.
func (p *Prepared) With(cfg Config) (*Prepared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	was := p.Config
	if cfg.Vendor != was.Vendor || cfg.GapPolicy != was.GapPolicy || cfg.SkipClean != was.SkipClean ||
		cfg.SkipCumulate != was.SkipCumulate || cfg.Theta != was.Theta {
		return nil, fmt.Errorf("core: config changes the preparation (vendor, gap policy, clean, cumulate or θ); prepare it anew")
	}
	q := *p
	q.Config = cfg
	if cfg.Group != was.Group || !maps.Equal(cfg.Registries, was.Registries) {
		ext, err := features.NewExtractor(cfg.Group, cfg.Registries)
		if err != nil {
			return nil, err
		}
		q.Extractor = ext
	}
	return &q, nil
}

// BuildSampleSet extracts the labelled samples appropriate for the
// configured algorithm into one columnar ml.SampleSet — the
// representation training shares across splits, calibration folds,
// and search candidates. Flat algorithms get one row per drive-day;
// the sequential CNN_LSTM gets one row per window of SeqLen
// consecutive drive-days, of width SeqLen×Width. It reads p.Frame.
func (p *Prepared) BuildSampleSet() (*ml.SampleSet, error) {
	return p.buildSampleSet(dataset.IdentityPlan(p.Frame))
}

// buildSampleSet is BuildSampleSet over the prepared rows plan
// streams.
func (p *Prepared) buildSampleSet(plan *dataset.Plan) (*ml.SampleSet, error) {
	if p.Config.Algorithm.Sequential() {
		return features.BuildSeqSampleSet(plan, p.Labels, p.Extractor, p.Config.SeqLen, p.buildOptions())
	}
	return features.BuildSampleSet(plan, p.Labels, p.Extractor, p.buildOptions())
}

func (p *Prepared) buildOptions() features.BuildOptions {
	opts := features.DefaultBuildOptions()
	opts.PositiveWindowDays = p.Config.PositiveWindowDays
	opts.Workers = p.Config.Workers
	return opts
}

// Model is a trained MFPA failure predictor.
type Model struct {
	Config      Config
	Classifier  ml.Classifier
	TrainerName string
	// TrainEndDay is the last day included in the learning window.
	TrainEndDay int
	// Width is the flat feature width; SeqLen*Width for CNN_LSTM input.
	Width int
	// Threshold is the calibrated decision threshold (0.5 when
	// FixedThreshold is set).
	Threshold float64
}

// TrainReport carries everything measured while training, including
// the held-out evaluation and the per-stage overheads of Fig. 20.
type TrainReport struct {
	// Prepared is the preparation trained on. From TrainOnFrame its
	// Frame is nil (see Prepared).
	Prepared *Prepared
	// TrainSamples/TestSamples are post-undersampling counts.
	TrainSamples int
	TestSamples  int
	TrainPos     int
	TestPos      int
	// Eval is the held-out (chronologically later) evaluation.
	Eval Evaluation
	// Test is the held-out view Eval scores; Test.Set() is the whole
	// extracted sample set it was split from.
	Test ml.View
	// Stage timings. SampleTime is extraction; from TrainOnFrame it
	// also covers the mean-fill and cumulate the rows stream through.
	SampleTime time.Duration
	TrainTime  time.Duration
	EvalTime   time.Duration
}

// Train runs the modelling stages of MFPA on prepared data: sample
// construction → timepoint segmentation → under-sampling → training →
// held-out evaluation.
//
// Samples are extracted once into a shared ml.SampleSet arena, and
// segmentation, under-sampling, threshold calibration, training, and
// held-out evaluation all operate on zero-copy row-index views of it.
// Each fit reads only its own view's rows — the tree ensembles bin
// just the rows they train on — so the held-out test period cannot
// reach the model or its threshold.
func Train(p *Prepared) (*Model, *TrainReport, error) {
	return train(p, dataset.IdentityPlan(p.Frame))
}

// train is Train with the samples extracted from the rows plan
// streams.
func train(p *Prepared, plan *dataset.Plan) (*Model, *TrainReport, error) {
	start := time.Now()
	set, err := p.buildSampleSet(plan)
	if err != nil {
		return nil, nil, err
	}
	sampleTime := time.Since(start)
	m, report, err := TrainSet(p, set)
	if err != nil {
		return nil, nil, err
	}
	report.SampleTime = sampleTime
	return m, report, nil
}

// TrainSet is Train's modelling stages on an already-extracted sample
// set: set must be what p.BuildSampleSet returns, and may be shared
// with other trainings on the same preparation, group, positive window
// and sample shape — training only takes views of it. The report's
// SampleTime is zero.
func TrainSet(p *Prepared, set *ml.SampleSet) (*Model, *TrainReport, error) {
	cfg := p.Config
	report := &TrainReport{Prepared: p}

	var train, test ml.View
	if cfg.RandomSegmentation {
		train, test = sampling.RandomSplitView(set.All(), 1-cfg.TrainFrac, cfg.Seed)
	} else {
		train, test = sampling.SplitFractionView(set.All(), cfg.TrainFrac)
	}
	trainFull := train
	train, err := sampling.UnderSampleView(train, cfg.NegativeRatio, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if err := ml.ValidateView(train, true); err != nil {
		return nil, nil, fmt.Errorf("core: training set: %w", err)
	}
	report.TrainSamples = train.Len()
	_, report.TrainPos = train.ClassCounts()
	report.Test = test
	report.TestSamples = test.Len()
	_, report.TestPos = test.ClassCounts()

	width := p.Extractor.Width()
	trainer, err := cfg.Algorithm.newTrainer(cfg.Seed, width, cfg.SeqLen, cfg.Workers, cfg.Bins)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	clf, threshold, err := fitCalibrated(trainer, train, trainFull, cfg)
	if err != nil {
		return nil, nil, err
	}
	report.TrainTime = time.Since(start)

	m := &Model{
		Config:      cfg,
		Classifier:  clf,
		TrainerName: trainer.Name(),
		Width:       width,
		Threshold:   threshold,
	}
	if train.Len() > 0 {
		m.TrainEndDay = train.MaxDay()
	}

	start = time.Now()
	report.Eval = EvaluateSamplesAt(clf, test, threshold)
	report.EvalTime = time.Since(start)
	return m, report, nil
}

// fitCalibrated trains the final model on train and, unless
// cfg.FixedThreshold is set, calibrates its decision threshold on
// trainFull. The calibration folds and the final fit are independent
// seeded fits, so they run in one fan-out bounded by cfg.Workers, the
// final fit last (at Workers=1 the order is fold by fold, then the
// final fit): it never reads the threshold. A calibration that cannot
// be planned or whose fold fails keeps the 0.5 default; only the final
// fit's error is returned.
func fitCalibrated(trainer ml.Trainer, train, trainFull ml.View, cfg Config) (ml.Classifier, float64, error) {
	var cal *calibration
	folds := 0
	if !cfg.FixedThreshold {
		if c, err := newCalibration(trainFull, cfg); err == nil {
			cal, folds = c, len(c.folds)
		}
	}
	var (
		clf       ml.Classifier
		calFailed atomic.Bool
	)
	err := parallel.Do(folds+1, cfg.Workers, func(i int) error {
		if i == folds {
			var err error
			clf, err = trainer.Train(train)
			return err
		}
		// After a failed fold the threshold is lost anyway; at Workers=1
		// this stops calibrating where a serial loop would.
		if !calFailed.Load() && cal.fit(trainer, i, cfg.Workers) != nil {
			calFailed.Store(true)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	threshold := 0.5
	if cal != nil && !calFailed.Load() {
		threshold = cal.threshold()
	}
	return clf, threshold, nil
}

// calibration picks the decision threshold on pooled time-series
// cross-validation folds of the *full-prevalence* training window: each
// fold's training part is under-sampled exactly as the final model's
// is, but validation keeps the natural class balance so the FPR
// estimate is trustworthy. The operating point is chosen without
// touching test data. CV folds and their under-sampled training parts
// are row-index views of the shared arena, and the pooled score/label
// buffers are preallocated from the usable folds' validation sizes —
// each fold scores straight into its own slot, so folds may be fitted
// concurrently.
type calibration struct {
	folds  []calFold
	scores []float64
	labels []int
}

type calFold struct {
	train, val ml.View
	off        int
}

// newCalibration plans the usable folds of trainFull: those whose
// under-sampled training part and validation part both hold both
// classes. It fails when there are none.
func newCalibration(trainFull ml.View, cfg Config) (*calibration, error) {
	folds, err := sampling.TimeSeriesCVView(trainFull, cfg.CVFolds)
	if err != nil {
		return nil, err
	}
	c := &calibration{folds: make([]calFold, 0, len(folds))}
	total := 0
	for _, fold := range folds {
		tr, err := sampling.UnderSampleView(fold.Train, cfg.NegativeRatio, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if !bothClassesView(tr) || !bothClassesView(fold.Val) {
			continue
		}
		c.folds = append(c.folds, calFold{train: tr, val: fold.Val, off: total})
		total += fold.Val.Len()
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no usable calibration folds")
	}
	c.scores = make([]float64, total)
	c.labels = make([]int, total)
	return c, nil
}

// fit trains fold i and scores its validation rows into the fold's
// slot.
func (c *calibration) fit(trainer ml.Trainer, i, workers int) error {
	f := c.folds[i]
	clf, err := trainer.Train(f.train)
	if err != nil {
		return err
	}
	n := f.val.Len()
	ml.ScoreView(clf, f.val, c.scores[f.off:f.off+n], workers)
	for j := 0; j < n; j++ {
		c.labels[f.off+j] = f.val.Y(j)
	}
	return nil
}

// threshold picks the operating point once every fold is fitted.
func (c *calibration) threshold() float64 {
	return pickThreshold(c.scores, c.labels)
}

// pickThreshold selects the operating point from pooled calibration
// scores by the weighted Youden index: a false alarm triggers
// pointless data migration and service interruption (the paper's
// motivation for PDR), so FPR is penalised more strongly than missed
// detections are rewarded.
func pickThreshold(scores []float64, labels []int) float64 {
	roc := metrics.ROCFromScores(scores, labels)
	best, bestJ := 0.5, -1.0
	for _, pt := range roc[1:] { // skip the +Inf corner
		if j := pt.TPR - fprPenalty*pt.FPR; j > bestJ {
			bestJ = j
			best = pt.Threshold
		}
	}
	return best
}

// fprPenalty is the false-positive weight of the calibration criterion.
const fprPenalty = 3

func bothClassesView(v ml.View) bool {
	neg, pos := v.ClassCounts()
	return neg > 0 && pos > 0
}

// TrainOnFrame is PrepareFrame followed by Train, bit for bit, without
// the prepared frame: vendor view → drop/fill plan → labels → every
// kept drive streamed through the per-drive clean and cumulate step
// straight into extraction → TrainSet. No prepared copy of the
// telemetry is allocated (the plan holds only the prepared day
// column), so the report's Prepared.Frame is nil; call PrepareFrame
// and Train for a preparation whose frame is read again.
func TrainOnFrame(f *dataset.Frame, tickets *ticket.Store, cfg Config) (*Model, *TrainReport, error) {
	p, plan, err := prepare(f, tickets, cfg)
	if err != nil {
		return nil, nil, err
	}
	return train(p, plan)
}
