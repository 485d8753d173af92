package mfpa

import (
	"math"
	"testing"
)

func smallFleet(t *testing.T) *Fleet {
	t.Helper()
	cfg := DefaultFleetConfig()
	cfg.Days = 120
	cfg.FailureScale = 0.04
	fleet, err := SimulateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func TestFacadeEndToEnd(t *testing.T) {
	fleet := smallFleet(t)
	cfg := DefaultConfig("I")
	model, report, err := Train(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model.TrainerName != "RF" {
		t.Fatalf("trainer = %s", model.TrainerName)
	}
	if tpr := report.Eval.TPR(); math.IsNaN(tpr) || tpr < 0.5 {
		t.Fatalf("TPR = %g", tpr)
	}
}

func TestFacadeGroupsAndAlgos(t *testing.T) {
	groups := []FeatureGroup{SFWB, SFW, SFB, SF, S, W, B}
	names := []string{"SFWB", "SFW", "SFB", "SF", "S", "W", "B"}
	for i, g := range groups {
		if g.String() != names[i] {
			t.Errorf("group %d renders %q, want %q", i, g.String(), names[i])
		}
	}
	for _, a := range []Algorithm{Bayes, SVM, RF, GBDT, CNNLSTM} {
		if a == "" {
			t.Error("empty algorithm constant")
		}
	}
}

func TestFacadePrepare(t *testing.T) {
	fleet := smallFleet(t)
	p, err := Prepare(fleet.Data, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Frame.Drives() == 0 || p.LabelStats.Labelled == 0 {
		t.Fatal("preparation produced nothing")
	}
}
