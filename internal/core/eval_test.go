package core

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
	"repro/internal/sampling"
	"repro/internal/simfleet"
)

// sameEvaluation fails unless got equals want field for field, with the
// AUC compared by Float64bits.
func sameEvaluation(t *testing.T, name string, got, want Evaluation) {
	t.Helper()
	if got.Confusion != want.Confusion || got.DriveConfusion != want.DriveConfusion {
		t.Fatalf("%s: confusion %+v / drives %+v, want %+v / %+v",
			name, got.Confusion, got.DriveConfusion, want.Confusion, want.DriveConfusion)
	}
	if math.Float64bits(got.AUC) != math.Float64bits(want.AUC) {
		t.Fatalf("%s: AUC %v, want %v", name, got.AUC, want.AUC)
	}
}

// TestTrainEvaluatesHeldOutView pins the view-scored held-out
// evaluation to the slice evaluation of the materialised held-out set.
func TestTrainEvaluatesHeldOutView(t *testing.T) {
	fleet := testFleet(t)
	for _, algo := range []Algorithm{AlgoRF, AlgoGBDT, AlgoBayes} {
		cfg := DefaultConfig("I")
		cfg.Algorithm = algo
		p, err := PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, rep, err := Train(p)
		if err != nil {
			t.Fatal(err)
		}
		set, err := p.BuildSampleSet()
		if err != nil {
			t.Fatal(err)
		}
		_, test := sampling.SplitFractionView(set.All(), p.Config.TrainFrac)
		held := mltest.Materialize(test)
		if len(held) == 0 {
			t.Fatalf("%s: no held-out rows", algo)
		}
		_, pos := classCounts(held)
		if rep.TestSamples != len(held) || rep.TestPos != pos {
			t.Fatalf("%s: report has %d test rows (%d positive), held-out set %d (%d)",
				algo, rep.TestSamples, rep.TestPos, len(held), pos)
		}
		sameEvaluation(t, string(algo), rep.Eval, evaluateSamplesAt(m.Classifier, held, m.Threshold))
	}
}

// TestEvaluateViewMatchesSlice checks the view evaluation against the
// slice one on day-sorted, shuffled and row-subset views.
func TestEvaluateViewMatchesSlice(t *testing.T) {
	fleet := testFleet(t)
	m, rep, err := TrainOnFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	set := rep.Test.Set()
	_, daySorted := sampling.SplitFractionView(set.All(), 0)
	shuffled, _ := sampling.RandomSplitView(set.All(), 0, 3)
	var subset []int32
	for r := set.Len() - 1; r >= 0; r -= 5 {
		subset = append(subset, int32(r))
	}
	for name, v := range map[string]ml.View{
		"all":        set.All(),
		"day-sorted": daySorted,
		"shuffled":   shuffled,
		"row-subset": set.All().WithRows(subset),
	} {
		sameEvaluation(t, name, EvaluateSamplesAt(m.Classifier, v, m.Threshold),
			evaluateSamplesAt(m.Classifier, mltest.Materialize(v), m.Threshold))
	}
}

// TestTrainSequentialMatchesSlicePipeline pins CNN_LSTM training on the
// sequence SampleSet to the slice pipeline on its materialised rows:
// the same split and under-sampled counts, calibrated threshold,
// training window and held-out evaluation.
func TestTrainSequentialMatchesSlicePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CNN_LSTM twice")
	}
	// A smaller fleet than testFleet's: CNN_LSTM scores every
	// full-prevalence calibration and held-out window.
	scfg := simfleet.TinyConfig()
	scfg.Days = 60
	scfg.FailureScale = 0.01
	fleet, err := simfleet.SimulateFrame(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("I")
	cfg.Algorithm = AlgoCNNLSTM
	p, err := PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, rep, err := Train(p)
	if err != nil {
		t.Fatal(err)
	}
	wantM, want, err := trainSlices(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Test.Set().Width(); got != p.Config.SeqLen*p.Extractor.Width() {
		t.Fatalf("sequence set width %d, want %d×%d", got, p.Config.SeqLen, p.Extractor.Width())
	}
	if rep.TrainSamples != want.TrainSamples || rep.TrainPos != want.TrainPos ||
		rep.TestSamples != want.TestSamples || rep.TestPos != want.TestPos {
		t.Fatalf("train %d (%d positive) / test %d (%d positive), slice pipeline %d (%d) / %d (%d)",
			rep.TrainSamples, rep.TrainPos, rep.TestSamples, rep.TestPos,
			want.TrainSamples, want.TrainPos, want.TestSamples, want.TestPos)
	}
	if math.Float64bits(m.Threshold) != math.Float64bits(wantM.Threshold) || m.TrainEndDay != wantM.TrainEndDay {
		t.Fatalf("threshold %v / train end %d, slice pipeline %v / %d",
			m.Threshold, m.TrainEndDay, wantM.Threshold, wantM.TrainEndDay)
	}
	sameEvaluation(t, "held-out", rep.Eval, want.Eval)
}
