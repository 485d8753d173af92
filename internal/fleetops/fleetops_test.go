package fleetops

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/simfleet"
)

var (
	fleetCache      *simfleet.Result
	fleetFrameCache *dataset.Frame
)

func fleet(t *testing.T) *simfleet.Result {
	t.Helper()
	if fleetCache == nil {
		cfg := simfleet.TinyConfig()
		cfg.Days = 120
		cfg.FailureScale = 0.05
		res, err := simfleet.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fleetCache = res
	}
	return fleetCache
}

// fleetFrame is the test fleet's telemetry in columnar form, the input
// Train takes.
func fleetFrame(t *testing.T) *dataset.Frame {
	t.Helper()
	if fleetFrameCache == nil {
		f, err := dataset.FrameFromDataset(fleet(t).Data)
		if err != nil {
			t.Fatal(err)
		}
		fleetFrameCache = f
	}
	return fleetFrameCache
}

func TestNewDefaults(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.NeedsIteration("I", 0) {
		t.Fatal("untrained vendor should need iteration")
	}
	if _, ok := s.Model("I"); ok {
		t.Fatal("model exists before training")
	}
	if _, err := New(Options{IterationDays: -1}); err == nil {
		t.Fatal("negative cadence accepted")
	}
}

func TestTrainAndIterate(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{IterationDays: 30})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Train(fleetFrame(t), res.Tickets, "I", 80)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Day != 80 || rec.TrainSamples == 0 {
		t.Fatalf("record = %+v", rec)
	}
	if s.NeedsIteration("I", 80) || s.NeedsIteration("I", 100) {
		t.Fatal("fresh model flagged as stale")
	}
	if !s.NeedsIteration("I", 110) {
		t.Fatal("30-day-old model not flagged")
	}

	// Step retrains exactly the due vendors.
	retrained, err := s.Step(fleetFrame(t), res.Tickets, []string{"I"}, 115)
	if err != nil {
		t.Fatal(err)
	}
	if len(retrained) != 1 || retrained[0] != "I" {
		t.Fatalf("retrained = %v", retrained)
	}
	hist := s.History("I")
	if len(hist) != 2 || hist[0].Day != 80 || hist[1].Day != 115 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestTrainSeesOnlyThePast(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// As of day 60, tickets filed later must be invisible: training at
	// 60 uses strictly fewer labelled failures than training at the end.
	early, err := s.Train(fleetFrame(t), res.Tickets, "I", 60)
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.Train(fleetFrame(t), res.Tickets, "I", 119)
	if err != nil {
		t.Fatal(err)
	}
	if early.TrainSamples >= late.TrainSamples {
		t.Fatalf("early training saw %d samples, late %d — future data leaked",
			early.TrainSamples, late.TrainSamples)
	}
}

func TestPublishRoundTrip(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish("I"); err == nil {
		t.Fatal("publish before training should fail")
	}
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", 119); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Publish("I")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := modelio.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	current, _ := s.Model("I")
	if restored.Threshold != current.Threshold {
		t.Fatal("published model differs from the live one")
	}
}

func TestTemplateValidation(t *testing.T) {
	bad := core.DefaultConfig("")
	bad.TrainFrac = 2
	if _, err := New(Options{Template: bad}); err == nil {
		t.Fatal("invalid template accepted")
	}
}
