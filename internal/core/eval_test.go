package core

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/sampling"
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
// evaluation to the slice evaluation of the materialised held-out set,
// and checks that a test slice passed to Train is evaluated as given.
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
		held := test.Materialize()
		if len(held) == 0 {
			t.Fatalf("%s: no held-out rows", algo)
		}
		_, pos := ml.ClassCounts(held)
		if rep.TestSamples != len(held) || rep.TestPos != pos {
			t.Fatalf("%s: report has %d test rows (%d positive), held-out set %d (%d)",
				algo, rep.TestSamples, rep.TestPos, len(held), pos)
		}
		sameEvaluation(t, string(algo), rep.Eval, EvaluateSamplesAt(m.Classifier, held, m.Threshold))

		// A caller-supplied slice replaces the held-out view: every
		// fourth held-out row, in reverse.
		var given []ml.Sample
		for i := len(held) - 1; i >= 0; i -= 4 {
			given = append(given, held[i])
		}
		m2, rep2, err := Train(p, given)
		if err != nil {
			t.Fatal(err)
		}
		_, pos = ml.ClassCounts(given)
		if rep2.TestSamples != len(given) || rep2.TestPos != pos {
			t.Fatalf("%s: given slice of %d rows (%d positive) reported as %d (%d)",
				algo, len(given), pos, rep2.TestSamples, rep2.TestPos)
		}
		sameEvaluation(t, string(algo)+"/given", rep2.Eval, EvaluateSamplesAt(m2.Classifier, given, m2.Threshold))
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
	set, err := rep.Prepared.BuildSampleSet()
	if err != nil {
		t.Fatal(err)
	}
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
		sameEvaluation(t, name, evaluateViewAt(m.Classifier, v, m.Threshold),
			EvaluateSamplesAt(m.Classifier, v.Materialize(), m.Threshold))
	}
}
