package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml/forest"
	"repro/internal/sampling"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Setting string
	TPR     float64
	FPR     float64
	AUC     float64
	Note    string
}

// AblationResult is a generic ablation table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the sweep.
func (r *AblationResult) String() string {
	t := newTable(r.Title, "Setting", "TPR", "FPR", "AUC", "Note")
	for _, row := range r.Rows {
		t.addRow(row.Setting, f4(row.TPR), f4(row.FPR), f4(row.AUC), row.Note)
	}
	return t.String()
}

// Row returns the metrics of one setting, if present.
func (r *AblationResult) Row(setting string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Setting == setting {
			return row, true
		}
	}
	return AblationRow{}, false
}

// variant is one setting of an ablation sweep: how it changes the
// default pipeline config, and the note its row carries.
type variant struct {
	setting string
	mutate  func(*core.Config)
	note    string
}

// runVariants trains the variants on the context fleet and converts
// each to a row.
func (c *Context) runVariants(vs []variant) ([]AblationRow, error) {
	f, err := c.FleetFrame()
	if err != nil {
		return nil, err
	}
	return c.runVariantsOn(f, c.Fleet.Tickets, vs)
}

// runVariantsOn trains the variants against an explicit fleet, through
// the context's caches, and converts each to a row.
func (c *Context) runVariantsOn(f *dataset.Frame, tickets *ticket.Store, vs []variant) ([]AblationRow, error) {
	cfgs := make([]core.Config, len(vs))
	for i, v := range vs {
		cfgs[i] = c.PipelineConfig(primaryVendor, features.GroupSFWB)
		v.mutate(&cfgs[i])
	}
	fits, i, err := c.trainAll(f, tickets, cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiments: variant %s: %w", vs[i].setting, err)
	}
	rows := make([]AblationRow, len(vs))
	for i, r := range fits {
		rows[i] = AblationRow{Setting: vs[i].setting, TPR: r.eval.TPR(), FPR: r.eval.FPR(), AUC: r.eval.AUC, Note: vs[i].note}
	}
	return rows, nil
}

// thetaFleet simulates a fleet with heavy ticket delays and
// machine abandonment, so the θ sensitivity test actually bites: with a
// mean failure→repair lag of nine days and half the users walking away
// from flaky machines early, a small θ leaves many failures
// unlabellable (starving the positive class) while a large θ back-dates
// labels into barely-degraded territory (polluting it).
func (c *Context) thetaFleet() (*simfleet.FrameResult, error) {
	cfg := c.Cfg
	cfg.TicketDelayMeanDays = 9
	cfg.TicketDelayMaxDays = 30
	cfg.AbandonShare = 0.5
	cfg.AbandonMaxDays = 15
	return simfleet.SimulateFrame(cfg)
}

// AblationTheta sweeps the failure-time threshold θ (the paper sets 7
// via a sensitivity test: too high raises FPR, too low starves TPR) on
// the heavy-delay fleet where labelling noise matters. The fleet is
// simulated for this one sweep; its models leave the memo when the
// sweep returns, so nothing keeps the fleet.
func (c *Context) AblationTheta() (*AblationResult, error) {
	fleet, err := c.thetaFleet()
	if err != nil {
		return nil, err
	}
	var vs []variant
	for _, theta := range []int{1, 3, 5, 7, 10, 14, 21} {
		v := variant{setting: fmt.Sprintf("θ=%d", theta), mutate: func(cfg *core.Config) { cfg.Theta = theta }}
		if theta == 7 {
			v.note = "paper's choice"
		}
		vs = append(vs, v)
	}
	rows, err := c.runVariantsOn(fleet.Frame, fleet.Tickets, vs)
	c.forgetFleet(fleet.Frame)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: failure-time threshold θ (delays mean 9d, 50% early abandonment)", Rows: rows}, nil
}

// AblationGapPolicy compares the paper's discontinuity optimisation
// against no cleaning and against a stricter drop rule.
func (c *Context) AblationGapPolicy() (*AblationResult, error) {
	rows, err := c.runVariants([]variant{
		{"drop≥10,fill≤3", func(cfg *core.Config) {}, "paper's policy"},
		{"no cleaning", func(cfg *core.Config) { cfg.SkipClean = true }, ""},
		{"drop≥6,fill≤3", func(cfg *core.Config) { cfg.GapPolicy = dataset.GapPolicy{DropGap: 6, FillGap: 3} }, "stricter drop"},
		{"drop≥10,fill≤1", func(cfg *core.Config) { cfg.GapPolicy = dataset.GapPolicy{DropGap: 10, FillGap: 1} }, "no mean fill"},
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: discontinuity optimisation (drop/fill policy)", Rows: rows}, nil
}

// AblationSegmentation compares timepoint-based segmentation with the
// conventional shuffled split the paper argues against. The shuffled
// split trains on future data, so its numbers are optimistically
// biased — the ablation quantifies the bias.
func (c *Context) AblationSegmentation() (*AblationResult, error) {
	rows, err := c.runVariants([]variant{
		{"timepoint-based", func(cfg *core.Config) {}, "paper's method; honest forward evaluation"},
		{"random split", func(cfg *core.Config) { cfg.RandomSegmentation = true }, "leaks future data into training"},
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: sample segmentation (Fig 8a)", Rows: rows}, nil
}

// AblationCrossValidation compares how well time-series CV and
// conventional k-fold CV *estimate* the model's true held-out AUC. The
// paper's point: k-fold validates on the past, so its estimate is
// optimistic; TS-CV's estimate tracks reality.
func (c *Context) AblationCrossValidation() (*AblationResult, error) {
	train, test, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	trainUS, err := sampling.UnderSampleView(train, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	trainer := &forest.Trainer{Trees: 60, MaxDepth: 12, Seed: p.Config.Seed}

	// Ground truth: train on the full window, evaluate forward.
	clf, err := trainer.Train(trainUS)
	if err != nil {
		return nil, err
	}
	trueAUC := core.EvaluateSamples(clf, test).AUC

	meanAUC := func(folds []sampling.FoldView) (float64, error) {
		var sum float64
		n := 0
		for _, fold := range folds {
			neg, pos := fold.Train.ClassCounts()
			negV, posV := fold.Val.ClassCounts()
			if neg == 0 || pos == 0 || negV == 0 || posV == 0 {
				continue
			}
			cl, err := trainer.Train(fold.Train)
			if err != nil {
				return 0, err
			}
			sum += core.EvaluateSamples(cl, fold.Val).AUC
			n++
		}
		if n == 0 {
			return math.NaN(), nil
		}
		return sum / float64(n), nil
	}

	tsFolds, err := sampling.TimeSeriesCVView(trainUS, 3)
	if err != nil {
		return nil, err
	}
	tsAUC, err := meanAUC(tsFolds)
	if err != nil {
		return nil, err
	}
	kFolds, err := sampling.KFoldCVView(trainUS, 4, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	kAUC, err := meanAUC(kFolds)
	if err != nil {
		return nil, err
	}

	res := &AblationResult{Title: "Ablation: cross-validation scheme (Fig 8b) — estimated vs true AUC"}
	res.Rows = append(res.Rows,
		AblationRow{Setting: "true forward AUC", AUC: trueAUC, Note: "train window → test window"},
		AblationRow{Setting: "time-series CV estimate", AUC: tsAUC,
			Note: fmt.Sprintf("bias %+0.4f", tsAUC-trueAUC)},
		AblationRow{Setting: "k-fold CV estimate", AUC: kAUC,
			Note: fmt.Sprintf("bias %+0.4f (validates on the past)", kAUC-trueAUC)},
	)
	return res, nil
}

// AblationSampling sweeps the under-sampling ratio (the paper uses 3:1
// or 5:1).
func (c *Context) AblationSampling() (*AblationResult, error) {
	var vs []variant
	for _, ratio := range []float64{1, 3, 5, 10} {
		v := variant{setting: fmt.Sprintf("%g:1", ratio), mutate: func(cfg *core.Config) { cfg.NegativeRatio = ratio }}
		if ratio == 3 {
			v.note = "paper's default"
		}
		vs = append(vs, v)
	}
	rows, err := c.runVariants(vs)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: negative under-sampling ratio", Rows: rows}, nil
}

// AblationCumulative compares cumulative W/B counters against raw daily
// counts (the paper accumulates because daily counts are too sparse to
// show trends).
func (c *Context) AblationCumulative() (*AblationResult, error) {
	rows, err := c.runVariants([]variant{
		{"cumulative", func(cfg *core.Config) {}, "paper's preprocessing"},
		{"daily counts", func(cfg *core.Config) { cfg.SkipCumulate = true }, ""},
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: cumulative vs daily W/B counters", Rows: rows}, nil
}

// AblationPositiveWindow sweeps the positive sample window (7/14/21
// days, the choices the paper lists).
func (c *Context) AblationPositiveWindow() (*AblationResult, error) {
	var vs []variant
	for _, days := range []int{7, 14, 21} {
		v := variant{setting: fmt.Sprintf("%dd", days), mutate: func(cfg *core.Config) { cfg.PositiveWindowDays = days }}
		if days == 7 {
			v.note = "paper's default"
		}
		vs = append(vs, v)
	}
	rows, err := c.runVariants(vs)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Title: "Ablation: positive sample window", Rows: rows}, nil
}
