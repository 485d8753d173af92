package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/ml/mltest"
	"repro/internal/modelio"
	"repro/internal/sampling"
	"repro/internal/simfleet"
)

// TestTrainIgnoresHeldOutRows is the leakage regression test: the
// chronologically later test rows must not influence the fitted model,
// its calibrated threshold, or any training-row score. Overwriting
// every held-out feature value with values no training row has must
// leave the marshalled model and the training-row scores bit-identical.
func TestTrainIgnoresHeldOutRows(t *testing.T) {
	scfg := simfleet.TinyConfig()
	scfg.FailureScale = 0.05
	fleet, err := simfleet.SimulateFrame(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []core.Algorithm{core.AlgoRF, core.AlgoGBDT} {
		cfg := core.DefaultConfig("I")
		cfg.Algorithm = algo
		p, err := core.PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		set, err := p.BuildSampleSet()
		if err != nil {
			t.Fatal(err)
		}
		train, test := sampling.SplitFractionView(set.All(), p.Config.TrainFrac)
		if test.Len() == 0 {
			t.Fatal("no held-out rows")
		}
		poisoned, err := mltest.PoisonOutside(set, train)
		if err != nil {
			t.Fatal(err)
		}

		base, _, err := core.TrainSet(p, set)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := core.TrainSet(p, poisoned)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := modelio.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := modelio.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("%s: held-out feature values changed the model (threshold %v vs %v)", algo, base.Threshold, got.Threshold)
		}
		rows := train.Indices()
		want := make([]float64, len(rows))
		have := make([]float64, len(rows))
		ml.ScoreView(base.Classifier, set.All().WithRows(rows), want, 1)
		ml.ScoreView(got.Classifier, poisoned.All().WithRows(rows), have, 1)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
				t.Fatalf("%s: training row %d scores %v, was %v", algo, rows[i], have[i], want[i])
			}
		}
	}
}
