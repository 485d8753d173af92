package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/simfleet"
)

// TestWithMatchesFreshPreparation pins Prepared.With: a Prepared derived
// from the default preparation must build the same sample set, calibrate
// the same threshold and evaluate the same as PrepareFrame run afresh
// with the derived config, for every feature group and for each flat
// modelling knob the paper reproduction varies.
func TestWithMatchesFreshPreparation(t *testing.T) {
	fleet := testFleet(t)
	variants := map[string]func(*Config){
		"ratio 1":      func(c *Config) { c.NegativeRatio = 1 },
		"ratio 5":      func(c *Config) { c.NegativeRatio = 5 },
		"window 14":    func(c *Config) { c.PositiveWindowDays = 14 },
		"random split": func(c *Config) { c.RandomSegmentation = true },
	}
	for _, g := range features.AllGroups() {
		g := g
		variants[g.String()] = func(c *Config) { c.Group = g }
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) { checkWith(t, fleet, mutate) })
	}
}

// TestWithMatchesFreshPreparationSequential is the CNN_LSTM case, on the
// smaller fleet of TestTrainSequentialMatchesSlicePipeline.
func TestWithMatchesFreshPreparationSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CNN_LSTM twice")
	}
	scfg := simfleet.TinyConfig()
	scfg.Days = 60
	scfg.FailureScale = 0.01
	fleet, err := simfleet.SimulateFrame(scfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWith(t, fleet, func(c *Config) { c.Algorithm = AlgoCNNLSTM })
}

// checkWith derives mutate's config from vendor I's default preparation
// of fleet and compares it with a fresh preparation of that config.
func checkWith(t *testing.T, fleet *simfleet.FrameResult, mutate func(*Config)) {
	t.Helper()
	base, err := PrepareFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("I")
	mutate(&cfg)
	derived, err := base.With(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if derived.Frame != base.Frame {
		t.Fatal("derived Prepared does not share the frame")
	}
	if !reflect.DeepEqual(derived.Config, fresh.Config) || derived.CleanStats != fresh.CleanStats ||
		derived.LabelStats != fresh.LabelStats || derived.RecordCount != fresh.RecordCount ||
		!reflect.DeepEqual(derived.Labels, fresh.Labels) {
		t.Fatal("derived preparation differs from a fresh one")
	}
	if shared := derived.Extractor == base.Extractor; shared != (cfg.Group == base.Config.Group) {
		t.Fatalf("extractor shared = %v for group %s", shared, cfg.Group)
	}

	dset, err := derived.BuildSampleSet()
	if err != nil {
		t.Fatal(err)
	}
	fset, err := fresh.BuildSampleSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSampleSet(dset, fset); err != nil {
		t.Fatal(err)
	}
	dm, drep, err := TrainSet(derived, dset)
	if err != nil {
		t.Fatal(err)
	}
	fm, frep, err := Train(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(dm.Threshold) != math.Float64bits(fm.Threshold) {
		t.Fatalf("threshold %v, fresh %v", dm.Threshold, fm.Threshold)
	}
	sameEvaluation(t, "held-out", drep.Eval, frep.Eval)
}

// sameSampleSet compares two sets bit for bit: width, arena, labels,
// days, serials and row order.
func sameSampleSet(a, b *ml.SampleSet) error {
	if a.Len() != b.Len() || a.Width() != b.Width() {
		return fmt.Errorf("set is %d×%d, fresh %d×%d", a.Len(), a.Width(), b.Len(), b.Width())
	}
	ax, bx := a.Arena(), b.Arena()
	for i := range ax {
		if math.Float64bits(ax[i]) != math.Float64bits(bx[i]) {
			return fmt.Errorf("arena differs at %d", i)
		}
	}
	for i := 0; i < a.Len(); i++ {
		if a.Y(i) != b.Y(i) || a.Day(i) != b.Day(i) || a.SN(i) != b.SN(i) {
			return fmt.Errorf("row %d differs", i)
		}
	}
	return nil
}

// TestWithRefusesPreparationChanges: a config that changes what the
// data stages produce needs its own PrepareFrame.
func TestWithRefusesPreparationChanges(t *testing.T) {
	fleet := testFleet(t)
	base, err := PrepareFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"Vendor":       func(c *Config) { c.Vendor = "II" },
		"GapPolicy":    func(c *Config) { c.GapPolicy = dataset.GapPolicy{DropGap: 6, FillGap: 3} },
		"SkipClean":    func(c *Config) { c.SkipClean = true },
		"SkipCumulate": func(c *Config) { c.SkipCumulate = true },
		"Theta":        func(c *Config) { c.Theta = 3 },
	} {
		cfg := DefaultConfig("I")
		mutate(&cfg)
		if _, err := base.With(cfg); err == nil {
			t.Errorf("With accepted a change to %s", name)
		}
	}
	// Defaults compare equal to the zero values they replace.
	cfg := DefaultConfig("I")
	cfg.Theta, cfg.GapPolicy, cfg.NegativeRatio = 7, dataset.DefaultGapPolicy(), 3
	p, err := base.With(cfg)
	if err != nil {
		t.Fatalf("With refused the defaults spelled out: %v", err)
	}
	if !reflect.DeepEqual(p.Config, base.Config) || p.Extractor != base.Extractor {
		t.Fatal("With of the same config changed the Prepared")
	}
}
