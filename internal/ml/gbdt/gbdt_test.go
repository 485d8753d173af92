package gbdt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

func moons(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		t := r.Float64() * math.Pi
		noise := func() float64 { return 0.15 * r.NormFloat64() }
		out = append(out,
			ml.Sample{X: []float64{math.Cos(t) + noise(), math.Sin(t) + noise()}, Y: 0},
			ml.Sample{X: []float64{1 - math.Cos(t) + noise(), 0.5 - math.Sin(t) + noise()}, Y: 1},
		)
	}
	return out
}

func TestGBDTAccuracy(t *testing.T) {
	train := moons(500, 1)
	test := moons(300, 2)
	clf, err := (&Trainer{Rounds: 80, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.95 {
		t.Fatalf("moons accuracy = %g", acc)
	}
}

func TestMoreRoundsReduceTrainingLoss(t *testing.T) {
	train := moons(300, 3)
	logloss := func(clf ml.Classifier) float64 {
		var sum float64
		for _, s := range train {
			p := clf.PredictProba(s.X)
			p = math.Min(math.Max(p, 1e-9), 1-1e-9)
			if s.Y == 1 {
				sum -= math.Log(p)
			} else {
				sum -= math.Log(1 - p)
			}
		}
		return sum / float64(len(train))
	}
	few, err := (&Trainer{Rounds: 5, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&Trainer{Rounds: 100, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	if logloss(many) >= logloss(few) {
		t.Fatalf("loss did not decrease: %g → %g", logloss(few), logloss(many))
	}
}

func TestBiasMatchesBaseRate(t *testing.T) {
	// With zero-information features, the prediction should collapse to
	// the base rate.
	var train []ml.Sample
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 800; i++ {
		y := 0
		if i%4 == 0 { // 25% positive
			y = 1
		}
		train = append(train, ml.Sample{X: []float64{r.Float64()}, Y: y})
	}
	clf, err := (&Trainer{Rounds: 10, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 100; i++ {
		sum += clf.PredictProba([]float64{r.Float64()})
	}
	if mean := sum / 100; math.Abs(mean-0.25) > 0.12 {
		t.Fatalf("mean probability %g far from base rate 0.25", mean)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	train := moons(500, 5)
	clf, err := (&Trainer{Rounds: 80, Subsample: 0.6, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range train {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(train)); acc < 0.93 {
		t.Fatalf("stochastic GBDT accuracy = %g", acc)
	}
}

func TestRoundsAccessor(t *testing.T) {
	clf, err := (&Trainer{Rounds: 17, Seed: 1}).Train(mltest.View(moons(100, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if got := clf.(*Model).Rounds(); got != 17 {
		t.Fatalf("Rounds = %d, want 17", got)
	}
}

func TestProbabilityBounds(t *testing.T) {
	clf, err := (&Trainer{Rounds: 40, Seed: 1}).Train(mltest.View(moons(200, 7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range moons(200, 8) {
		p := clf.PredictProba(s.X)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("probability %g out of bounds", p)
		}
	}
}

func TestDeterministic(t *testing.T) {
	train := moons(200, 9)
	a, _ := (&Trainer{Rounds: 20, Subsample: 0.7, Seed: 3}).Train(mltest.View(train))
	b, _ := (&Trainer{Rounds: 20, Subsample: 0.7, Seed: 3}).Train(mltest.View(train))
	for _, s := range moons(50, 10) {
		if a.PredictProba(s.X) != b.PredictProba(s.X) {
			t.Fatal("same seed produced different ensembles")
		}
	}
}

func TestRejectsNaNFeatures(t *testing.T) {
	train := moons(50, 43)
	train[3].X[0] = math.NaN()
	if _, err := (&Trainer{Rounds: 5, Seed: 1}).Train(mltest.View(train)); err == nil {
		t.Fatal("NaN features accepted by the histogram engine")
	}
}

func TestRequiresBothClasses(t *testing.T) {
	if _, err := (&Trainer{}).Train(mltest.View([]ml.Sample{{X: []float64{1}, Y: 1}})); err == nil {
		t.Fatal("single-class training accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	train := moons(150, 30)
	clf, err := (&Trainer{Rounds: 20, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	restored, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range moons(40, 31) {
		if restored.PredictProba(s.X) != m.PredictProba(s.X) {
			t.Fatal("round trip changed predictions")
		}
	}
	if restored.Rounds() != m.Rounds() {
		t.Fatal("round count changed")
	}
}

func TestImportRejectsCorrupt(t *testing.T) {
	if _, err := Import(Exported{LearningRate: 0}); err == nil {
		t.Error("zero learning rate accepted")
	}
}

func TestGBDTBatchMatchesPerRowExactly(t *testing.T) {
	clf, err := (&Trainer{Rounds: 40, MaxDepth: 4, Subsample: 0.8, Seed: 1}).Train(mltest.View(moons(400, 50)))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	probe := moons(350, 51) // 700 rows straddle the batch kernel's block size
	xs := make([][]float64, len(probe))
	want := make([]float64, len(probe))
	for i := range probe {
		xs[i] = probe[i].X
		want[i] = m.PredictProba(probe[i].X)
	}
	for _, workers := range []int{1, 3, 0} {
		out := make([]float64, len(xs))
		m.PredictProbaBatch(xs, out, workers)
		for i := range out {
			if out[i] != want[i] { // bit-exact, not approximate
				t.Fatalf("workers=%d row %d: batch %v != per-row %v", workers, i, out[i], want[i])
			}
		}
	}
	var _ ml.BatchClassifier = m
	scores := ml.BatchScoresView(m, mltest.View(probe), 0)
	for i := range scores {
		if scores[i] != want[i] {
			t.Fatalf("BatchScoresView row %d: %v != %v", i, scores[i], want[i])
		}
	}
}
