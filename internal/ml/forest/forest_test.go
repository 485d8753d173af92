package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
)

// rings draws two concentric ring-ish classes — non-linear, solvable by
// axis-aligned ensembles.
func rings(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		x := r.Float64()*4 - 2
		y := r.Float64()*4 - 2
		label := 0
		if x*x+y*y < 1.2 {
			label = 1
		}
		out = append(out, ml.Sample{X: []float64{x, y}, Y: label})
	}
	return out
}

func TestForestAccuracy(t *testing.T) {
	train := rings(1500, 1)
	test := rings(600, 2)
	clf, err := (&Trainer{Trees: 60, MaxDepth: 10, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.93 {
		t.Fatalf("ring accuracy = %g", acc)
	}
}

func TestForestDeterministicDespiteParallelism(t *testing.T) {
	train := rings(400, 3)
	probe := rings(100, 4)
	run := func(workers int) []float64 {
		clf, err := (&Trainer{Trees: 16, Seed: 5, Parallelism: workers}).Train(mltest.View(train))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(probe))
		for i, s := range probe {
			out[i] = clf.PredictProba(s.X)
		}
		return out
	}
	a := run(1)
	b := run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallelism changed the model")
		}
	}
}

func TestForestRejectsNaNFeatures(t *testing.T) {
	train := rings(50, 32)
	train[7].X[1] = math.NaN()
	if _, err := (&Trainer{Trees: 3, Seed: 1}).Train(mltest.View(train)); err == nil {
		t.Fatal("NaN features accepted by the histogram engine")
	}
}

func TestForestSmallBinBudgetStillLearns(t *testing.T) {
	train := rings(1500, 33)
	test := rings(600, 34)
	clf, err := (&Trainer{Trees: 40, MaxDepth: 10, Seed: 1, Bins: 16}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.9 {
		t.Fatalf("16-bin accuracy = %g", acc)
	}
}

func TestForestSeedMatters(t *testing.T) {
	train := rings(400, 6)
	a, _ := (&Trainer{Trees: 8, Seed: 1}).Train(mltest.View(train))
	b, _ := (&Trainer{Trees: 8, Seed: 2}).Train(mltest.View(train))
	same := true
	for _, s := range rings(50, 7) {
		if a.PredictProba(s.X) != b.PredictProba(s.X) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestForestSize(t *testing.T) {
	clf, err := (&Trainer{Trees: 7, Seed: 1}).Train(mltest.View(rings(100, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if got := clf.(*Model).Size(); got != 7 {
		t.Fatalf("Size = %d, want 7", got)
	}
}

func TestForestProbabilityBounds(t *testing.T) {
	clf, err := (&Trainer{Trees: 10, Seed: 1}).Train(mltest.View(rings(200, 9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rings(200, 10) {
		p := clf.PredictProba(s.X)
		if p < 0 || p > 1 {
			t.Fatalf("probability %g out of bounds", p)
		}
	}
}

func TestForestValidates(t *testing.T) {
	if _, err := (&Trainer{}).Train(ml.View{}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestForestBeatsSingleTreeOnNoise(t *testing.T) {
	// Flip 15% of training labels; the bagged ensemble should
	// generalise at least as well as one fully grown tree.
	r := rand.New(rand.NewSource(11))
	train := rings(1200, 12)
	for i := range train {
		if r.Float64() < 0.15 {
			train[i].Y = 1 - train[i].Y
		}
	}
	test := rings(600, 13)
	acc := func(clf ml.Classifier) float64 {
		correct := 0
		for _, s := range test {
			if ml.Predict(clf, s.X) == s.Y {
				correct++
			}
		}
		return float64(correct) / float64(len(test))
	}
	forest, err := (&Trainer{Trees: 50, MaxDepth: 12, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&Trainer{Trees: 1, MaxDepth: 12, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	if acc(forest) < acc(single)-0.01 {
		t.Fatalf("forest %.3f worse than single tree %.3f on noisy data", acc(forest), acc(single))
	}
}

func TestFeatureImportance(t *testing.T) {
	// Feature 0 carries the whole signal; feature 1 is noise.
	r := rand.New(rand.NewSource(20))
	var train []ml.Sample
	for i := 0; i < 600; i++ {
		v := r.NormFloat64()
		y := 0
		if v > 0 {
			y = 1
		}
		train = append(train, ml.Sample{X: []float64{v, r.NormFloat64()}, Y: y})
	}
	clf, err := (&Trainer{Trees: 30, MaxDepth: 6, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	imp := clf.(*Model).FeatureImportance()
	if len(imp) != 2 {
		t.Fatalf("importance width = %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %g", v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("importances sum to %g", sum)
	}
	if imp[0] < 0.7 {
		t.Fatalf("signal feature importance = %g, want dominant", imp[0])
	}
}

func TestForestExplainFaithful(t *testing.T) {
	train := rings(800, 21)
	clf, err := (&Trainer{Trees: 20, MaxDepth: 8, Seed: 1}).Train(mltest.View(train))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	for _, s := range rings(50, 22) {
		contrib, bias := m.Explain(s.X)
		sum := bias
		for _, c := range contrib {
			sum += c
		}
		if diff := sum - m.PredictProba(s.X); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("explanation off by %g", diff)
		}
	}
}

func TestForestBatchMatchesPerRowExactly(t *testing.T) {
	clf, err := (&Trainer{Trees: 40, MaxDepth: 10, Seed: 1}).Train(mltest.View(rings(800, 40)))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	probe := rings(700, 41) // straddles the batch kernel's block size
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
	// The model must surface the fast path through the ml interface.
	var _ ml.BatchClassifier = m
	scores := ml.BatchScoresView(m, mltest.View(probe), 0)
	for i := range scores {
		if scores[i] != want[i] {
			t.Fatalf("BatchScoresView row %d: %v != %v", i, scores[i], want[i])
		}
	}
}
