package ml

import "testing"

// TestValidateSamples pins the checks FromSamples makes on hand-built
// samples, and ValidateView's class check on the resulting view.
func TestValidateSamples(t *testing.T) {
	good := []Sample{
		{X: []float64{1, 2}, Y: 0},
		{X: []float64{3, 4}, Y: 1},
	}
	set, err := FromSamples(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateView(set.All(), true); err != nil {
		t.Fatal(err)
	}

	if _, err := FromSamples(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := FromSamples([]Sample{{X: nil, Y: 0}}); err == nil {
		t.Error("zero-width accepted")
	}
	ragged := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 1}}
	if _, err := FromSamples(ragged); err == nil {
		t.Error("ragged widths accepted")
	}
	for _, y := range []int{2, -1, 256} {
		if _, err := FromSamples([]Sample{{X: []float64{1}, Y: y}}); err == nil {
			t.Errorf("label %d accepted", y)
		}
	}
	onlyPos, err := FromSamples([]Sample{{X: []float64{1}, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateView(onlyPos.All(), true); err == nil {
		t.Error("single-class set accepted with requireBothClasses")
	}
	if err := ValidateView(onlyPos.All(), false); err != nil {
		t.Errorf("single-class set rejected without requireBothClasses: %v", err)
	}
}

func TestClassCounts(t *testing.T) {
	set, err := FromSamples([]Sample{
		{X: []float64{0}, Y: 0},
		{X: []float64{0}, Y: 1},
		{X: []float64{0}, Y: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if neg, pos := set.All().ClassCounts(); neg != 1 || pos != 2 {
		t.Fatalf("counts = %d/%d", neg, pos)
	}
	if neg, pos := set.All().WithRows([]int32{2, 0}).ClassCounts(); neg != 1 || pos != 1 {
		t.Fatalf("row-subset counts = %d/%d", neg, pos)
	}
}

type constClassifier float64

func (c constClassifier) PredictProba([]float64) float64 { return float64(c) }

func TestPredictThreshold(t *testing.T) {
	if Predict(constClassifier(0.4), nil) != 0 {
		t.Error("0.4 should predict 0")
	}
	if Predict(constClassifier(0.5), nil) != 1 {
		t.Error("0.5 should predict 1")
	}
}
