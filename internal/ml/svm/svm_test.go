package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

func blobs(n int, sep float64, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		out = append(out,
			ml.Sample{X: []float64{r.NormFloat64() - sep, r.NormFloat64()}, Y: 0},
			ml.Sample{X: []float64{r.NormFloat64() + sep, r.NormFloat64()}, Y: 1},
		)
	}
	return out
}

func TestLinearlySeparable(t *testing.T) {
	train := blobs(300, 3, 1)
	test := blobs(200, 3, 2)
	// Standardize matches the production configuration (core.Config);
	// raw Pegasos on unscaled data converges noticeably slower.
	clf, err := (&Trainer{Seed: 1, Standardize: true}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.97 {
		t.Fatalf("accuracy = %g", acc)
	}
}

func TestMarginSign(t *testing.T) {
	train := blobs(300, 3, 3)
	clf, err := (&Trainer{Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	if m.Margin([]float64{5, 0}) <= 0 {
		t.Error("positive-side margin should be > 0")
	}
	if m.Margin([]float64{-5, 0}) >= 0 {
		t.Error("negative-side margin should be < 0")
	}
	// Probability is a monotone map of the margin.
	if m.PredictProba([]float64{5, 0}) <= m.PredictProba([]float64{1, 0}) {
		t.Error("probability not monotone in margin")
	}
}

func TestStandardizeHandlesHugeScales(t *testing.T) {
	// Without standardisation the 1e9-scaled feature swamps SGD; the
	// trainer must cope because SMART counters look exactly like this.
	r := rand.New(rand.NewSource(4))
	var train []ml.Sample
	for i := 0; i < 400; i++ {
		train = append(train,
			ml.Sample{X: []float64{1e9 + 1e7*r.NormFloat64(), r.NormFloat64()}, Y: 0},
			ml.Sample{X: []float64{2e9 + 1e7*r.NormFloat64(), r.NormFloat64()}, Y: 1},
		)
	}
	clf, err := (&Trainer{Seed: 1, Standardize: true}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range train {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(train)); acc < 0.95 {
		t.Fatalf("accuracy with huge scales = %g", acc)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	// Two independent copies of one seeded training set.
	a, err := (&Trainer{Seed: 9}).Train(mltest.View(blobs(100, 2, 5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Trainer{Seed: 9}).Train(mltest.View(blobs(100, 2, 5)))
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.(*Model).w, b.(*Model).w
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestClassWeightShiftsBoundary(t *testing.T) {
	// Overlapping classes: upweighting positives must increase recall.
	train := blobs(400, 0.5, 6)
	plain, err := (&Trainer{Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := (&Trainer{Seed: 1, ClassWeight: 5}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	test := blobs(300, 0.5, 7)
	recall := func(clf ml.Classifier) float64 {
		tp, fn := 0, 0
		for _, s := range test {
			if s.Y != 1 {
				continue
			}
			if ml.Predict(clf, s.X) == 1 {
				tp++
			} else {
				fn++
			}
		}
		return float64(tp) / float64(tp+fn)
	}
	if recall(weighted) <= recall(plain)-0.01 {
		t.Fatalf("class weighting did not raise recall: %g vs %g", recall(weighted), recall(plain))
	}
}

func TestProbabilityBounds(t *testing.T) {
	train := blobs(50, 2, 8)
	clf, err := (&Trainer{Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0}, {100, -100}, {-100, 100}} {
		p := clf.PredictProba(x)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("probability %g out of bounds", p)
		}
	}
}

func TestTrainRequiresBothClasses(t *testing.T) {
	if _, err := (&Trainer{}).Train(mltest.View([]ml.Sample{{X: []float64{1}, Y: 0}})); err == nil {
		t.Fatal("single-class training accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	train := blobs(150, 3, 30)
	clf, err := (&Trainer{Seed: 1, Standardize: true}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	restored, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range blobs(30, 3, 31) {
		if restored.PredictProba(s.X) != m.PredictProba(s.X) {
			t.Fatal("round trip changed predictions")
		}
	}
}

func TestImportRejectsCorrupt(t *testing.T) {
	if _, err := Import(Exported{}); err == nil {
		t.Error("empty export accepted")
	}
	if _, err := Import(Exported{Weights: []float64{1}, Mean: []float64{1}, Std: []float64{1, 2}}); err == nil {
		t.Error("scaler length mismatch accepted")
	}
	if _, err := Import(Exported{Weights: []float64{1, 2}, Mean: []float64{1}, Std: []float64{1}}); err == nil {
		t.Error("scaler width mismatch accepted")
	}
}

func TestRejectsColumnSubView(t *testing.T) {
	v := mltest.View(blobs(100, 2, 1))
	if _, err := (&Trainer{Seed: 1}).Train(v.WithCols([]int{0})); err == nil {
		t.Fatal("column sub-view accepted")
	}
}
