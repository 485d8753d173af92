package ml

import "testing"

func TestValidateSamples(t *testing.T) {
	good := []Sample{
		{X: []float64{1, 2}, Y: 0},
		{X: []float64{3, 4}, Y: 1},
	}
	if err := ValidateSamples(good, true); err != nil {
		t.Fatal(err)
	}

	if err := ValidateSamples(nil, false); err == nil {
		t.Error("empty set accepted")
	}
	if err := ValidateSamples([]Sample{{X: nil, Y: 0}}, false); err == nil {
		t.Error("zero-width accepted")
	}
	ragged := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 1}}
	if err := ValidateSamples(ragged, false); err == nil {
		t.Error("ragged widths accepted")
	}
	badLabel := []Sample{{X: []float64{1}, Y: 2}}
	if err := ValidateSamples(badLabel, false); err == nil {
		t.Error("label 2 accepted")
	}
	onlyPos := []Sample{{X: []float64{1}, Y: 1}}
	if err := ValidateSamples(onlyPos, true); err == nil {
		t.Error("single-class set accepted with requireBothClasses")
	}
	if err := ValidateSamples(onlyPos, false); err != nil {
		t.Errorf("single-class set rejected without requireBothClasses: %v", err)
	}
}

func TestClassCounts(t *testing.T) {
	neg, pos := ClassCounts([]Sample{
		{X: []float64{0}, Y: 0},
		{X: []float64{0}, Y: 1},
		{X: []float64{0}, Y: 1},
	})
	if neg != 1 || pos != 2 {
		t.Fatalf("counts = %d/%d", neg, pos)
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
