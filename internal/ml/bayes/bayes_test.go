package bayes

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

// gaussians draws n samples per class from two separated Gaussians.
func gaussians(n int, sep float64, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		out = append(out, ml.Sample{
			X: []float64{r.NormFloat64(), r.NormFloat64()},
			Y: 0,
		})
		out = append(out, ml.Sample{
			X: []float64{r.NormFloat64() + sep, r.NormFloat64() + sep},
			Y: 1,
		})
	}
	return out
}

func TestSeparableAccuracy(t *testing.T) {
	train := gaussians(300, 4, 1)
	test := gaussians(200, 4, 2)
	clf, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.98 {
		t.Fatalf("accuracy = %g on well-separated Gaussians", acc)
	}
}

func TestProbabilitiesAreCalibratedAtCenter(t *testing.T) {
	train := gaussians(2000, 2, 3)
	clf, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	// Halfway between the class means both classes are equally likely.
	p := clf.PredictProba([]float64{1, 1})
	if math.Abs(p-0.5) > 0.1 {
		t.Fatalf("midpoint probability = %g, want ≈0.5", p)
	}
	// Deep inside each class the probability saturates.
	if p := clf.PredictProba([]float64{-3, -3}); p > 0.01 {
		t.Fatalf("negative-class point scored %g", p)
	}
	if p := clf.PredictProba([]float64{5, 5}); p < 0.99 {
		t.Fatalf("positive-class point scored %g", p)
	}
}

func TestConstantFeatureDoesNotBreak(t *testing.T) {
	// A constant column (like AvailableSpareThreshold) must not produce
	// NaN or infinite likelihoods.
	var train []ml.Sample
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		train = append(train,
			ml.Sample{X: []float64{10, r.NormFloat64()}, Y: 0},
			ml.Sample{X: []float64{10, r.NormFloat64() + 3}, Y: 1},
		)
	}
	clf, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	p := clf.PredictProba([]float64{10, 1.5})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("probability = %g", p)
	}
}

func TestPriorsMatter(t *testing.T) {
	// With identical likelihoods, the prior decides.
	var train []ml.Sample
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 900; i++ {
		train = append(train, ml.Sample{X: []float64{r.NormFloat64()}, Y: 0})
	}
	for i := 0; i < 100; i++ {
		train = append(train, ml.Sample{X: []float64{r.NormFloat64()}, Y: 1})
	}
	clf, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	if p := clf.PredictProba([]float64{0}); p > 0.25 {
		t.Fatalf("probability %g ignores the 9:1 prior", p)
	}
}

func TestTrainRequiresBothClasses(t *testing.T) {
	onlyPos := []ml.Sample{{X: []float64{1}, Y: 1}}
	if _, err := (&Trainer{}).Train(mltest.View(onlyPos)); err == nil {
		t.Fatal("single-class training accepted")
	}
}

func TestName(t *testing.T) {
	if (&Trainer{}).Name() != "Bayes" {
		t.Fatal("wrong name")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	train := gaussians(200, 3, 9)
	clf, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	restored, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gaussians(30, 3, 10) {
		if restored.PredictProba(s.X) != m.PredictProba(s.X) {
			t.Fatal("round trip changed predictions")
		}
	}
}

func TestImportRejectsCorrupt(t *testing.T) {
	if _, err := Import(Exported{}); err == nil {
		t.Error("empty export accepted")
	}
	bad := Exported{
		Mean:     [2][]float64{{1}, {1}},
		Variance: [2][]float64{{0}, {1}}, // zero variance
	}
	if _, err := Import(bad); err == nil {
		t.Error("zero variance accepted")
	}
	ragged := Exported{
		Mean:     [2][]float64{{1, 2}, {1}},
		Variance: [2][]float64{{1, 1}, {1}},
	}
	if _, err := Import(ragged); err == nil {
		t.Error("ragged widths accepted")
	}
}

func TestVarSmoothingOverride(t *testing.T) {
	train := gaussians(100, 2, 11)
	a, err := (&Trainer{VarSmoothing: 0.5}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Trainer{}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	// Heavy smoothing flattens the posterior toward the prior.
	pa := a.PredictProba([]float64{5, 5})
	pb := b.PredictProba([]float64{5, 5})
	if pa >= pb {
		t.Fatalf("smoothing did not soften the posterior: %g vs %g", pa, pb)
	}
}

func TestRejectsColumnSubView(t *testing.T) {
	v := mltest.View(gaussians(100, 3, 1))
	if _, err := (&Trainer{}).Train(v.WithCols([]int{0})); err == nil {
		t.Fatal("column sub-view accepted")
	}
}
