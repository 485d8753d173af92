package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml/matrix"
	"repro/internal/ml/mltest"
)

// The growth tests run on the histogram engine, the one the ensembles
// use, with unit weights and the default 256-bin budget.

func growClassifier(t testing.TB, xs [][]float64, ys []float64, cfg Config) *Classifier {
	t.Helper()
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return GrowClassifierBinned(m, ys, nil, cfg)
}

func growRegressor(t testing.TB, xs [][]float64, ys []float64, cfg Config) *Regressor {
	t.Helper()
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return GrowRegressorBinned(m, ys, nil, cfg)
}

func xorData(n int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, 0, n)
	ys := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		y := 0.0
		if (a > 0.5) != (b > 0.5) {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	return xs, ys
}

func TestClassifierLearnsXOR(t *testing.T) {
	// XOR needs at least depth 2 and defeats any single linear split —
	// a good smoke test that recursive splitting works.
	xs, ys := xorData(600, 1)
	// The root split of XOR is uninformative, so a greedy tree with
	// MinSamplesLeaf=1 wastes its depth trimming pure edge slivers; a
	// modest leaf floor forces the central splits that unlock the
	// pattern (the forest uses the same mechanism via bagging).
	tree := growClassifier(t, xs, ys, Config{MaxDepth: 6, MinSamplesLeaf: 20})
	testXs, testYs := xorData(300, 2)
	correct := 0
	for i := range testXs {
		pred := 0.0
		if tree.PredictProba(testXs[i]) >= 0.5 {
			pred = 1
		}
		if pred == testYs[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(testXs)); acc < 0.95 {
		t.Fatalf("XOR accuracy = %g", acc)
	}
}

func TestPureLeafShortCircuit(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := []float64{1, 1, 1}
	tree := growClassifier(t, xs, ys, Config{})
	if tree.NodeCount() != 1 {
		t.Fatalf("pure node grew %d nodes, want 1", tree.NodeCount())
	}
	if tree.PredictProba([]float64{5}) != 1 {
		t.Fatal("pure leaf should predict 1")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	xs, ys := xorData(500, 3)
	for _, depth := range []int{1, 2, 4} {
		tree := growClassifier(t, xs, ys, Config{MaxDepth: depth})
		if got := tree.Depth(); got > depth {
			t.Errorf("depth = %d, limit %d", got, depth)
		}
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	xs, ys := xorData(100, 4)
	tree := growClassifier(t, xs, ys, Config{MaxDepth: 20, MinSamplesLeaf: 30})
	// With a 30-sample leaf floor on 100 samples, the tree stays small.
	if tree.NodeCount() > 9 {
		t.Fatalf("tree has %d nodes despite MinSamplesLeaf", tree.NodeCount())
	}
}

func TestRegressorFitsStep(t *testing.T) {
	xs := make([][]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = []float64{float64(i)}
		if i >= 50 {
			ys[i] = 10
		}
	}
	reg := growRegressor(t, xs, ys, Config{MaxDepth: 2})
	if got := reg.Predict([]float64{10}); got != 0 {
		t.Errorf("left side = %g, want 0", got)
	}
	if got := reg.Predict([]float64{90}); got != 10 {
		t.Errorf("right side = %g, want 10", got)
	}
}

func TestRegressorLeafIDsDense(t *testing.T) {
	xs, ys := xorData(200, 6)
	reg := growRegressor(t, xs, ys, Config{MaxDepth: 4})
	seen := make(map[int]bool)
	for _, x := range xs {
		id := reg.Apply(x)
		if id < 0 || id >= reg.NumLeaves() {
			t.Fatalf("leaf id %d out of [0,%d)", id, reg.NumLeaves())
		}
		seen[id] = true
	}
	if len(seen) != reg.NumLeaves() {
		t.Fatalf("only %d of %d leaves reachable", len(seen), reg.NumLeaves())
	}
}

func TestSetLeafValue(t *testing.T) {
	xs := [][]float64{{0}, {1}}
	ys := []float64{0, 1}
	reg := growRegressor(t, xs, ys, Config{MaxDepth: 1})
	leaf := reg.Apply([]float64{0})
	reg.SetLeafValue(leaf, 42)
	if got := reg.Predict([]float64{0}); got != 42 {
		t.Fatalf("Predict after SetLeafValue = %g", got)
	}
}

func TestSetLeafValuePanicsOnBadID(t *testing.T) {
	reg := growRegressor(t, [][]float64{{0}}, []float64{0}, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("bad leaf id should panic")
		}
	}()
	reg.SetLeafValue(99, 1)
}

func TestFeatureSubsampling(t *testing.T) {
	// With MaxFeatures=1 of 2 and a fixed seed, growth is deterministic.
	xs, ys := xorData(300, 7)
	a := growClassifier(t, xs, ys, Config{MaxDepth: 6, MaxFeatures: 1, Seed: 3})
	b := growClassifier(t, xs, ys, Config{MaxDepth: 6, MaxFeatures: 1, Seed: 3})
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, float64(50-i) / 50}
		if a.PredictProba(x) != b.PredictProba(x) {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestSqrtFeatures(t *testing.T) {
	cfg := Config{MaxFeatures: -1}
	if got := cfg.featuresPerSplit(45); got != 6 {
		t.Fatalf("√45 features = %d, want 6", got)
	}
	cfg = Config{MaxFeatures: 100}
	if got := cfg.featuresPerSplit(10); got != 10 {
		t.Fatalf("clamped features = %d, want 10", got)
	}
	cfg = Config{}
	if got := cfg.featuresPerSplit(10); got != 10 {
		t.Fatalf("all features = %d, want 10", got)
	}
}

func TestRegressorPredictionsWithinTargetRange(t *testing.T) {
	// A regression tree's leaf values are means of target subsets, so
	// predictions can never escape the target range.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(100)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
			ys[i] = r.NormFloat64() * 10
			lo = math.Min(lo, ys[i])
			hi = math.Max(hi, ys[i])
		}
		reg := growRegressor(t, xs, ys, Config{MaxDepth: 5, Seed: seed})
		for trial := 0; trial < 20; trial++ {
			p := reg.Predict([]float64{r.NormFloat64() * 3, r.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierProbabilityWithinUnitRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(80)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{r.NormFloat64()}
			ys[i] = float64(r.Intn(2))
		}
		tree := growClassifier(t, xs, ys, Config{MaxDepth: 6, Seed: seed})
		for trial := 0; trial < 20; trial++ {
			p := tree.PredictProba([]float64{r.NormFloat64() * 5})
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExportRoundTrip(t *testing.T) {
	xs, ys := xorData(300, 8)
	orig := growClassifier(t, xs, ys, Config{MaxDepth: 6, MinSamplesLeaf: 20})
	restored, err := ImportClassifier(orig.Export())
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if orig.PredictProba(xs[i]) != restored.PredictProba(xs[i]) {
			t.Fatal("classifier round trip changed predictions")
		}
	}
	reg := growRegressor(t, xs, ys, Config{MaxDepth: 4})
	regBack, err := ImportRegressor(reg.Export())
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if reg.Predict(xs[i]) != regBack.Predict(xs[i]) {
			t.Fatal("regressor round trip changed predictions")
		}
		if reg.Apply(xs[i]) != regBack.Apply(xs[i]) {
			t.Fatal("regressor round trip changed leaf ids")
		}
	}
}

func TestImportRejectsCorruptTrees(t *testing.T) {
	if _, err := ImportClassifier(Exported{}); err == nil {
		t.Fatal("empty export accepted")
	}
	bad := Exported{Nodes: []ExportedNode{{Feature: 0, Left: 5, Right: 1}}}
	if _, err := ImportClassifier(bad); err == nil {
		t.Fatal("out-of-range child accepted")
	}
	selfRef := Exported{Nodes: []ExportedNode{{Feature: 0, Left: 0, Right: 0}}}
	if _, err := ImportRegressor(selfRef); err == nil {
		t.Fatal("self-referential node accepted")
	}
}

func TestExplainReconstructsPrediction(t *testing.T) {
	xs, ys := xorData(400, 9)
	tree := growClassifier(t, xs, ys, Config{MaxDepth: 6, MinSamplesLeaf: 20})
	for i := 0; i < 50; i++ {
		x := xs[i]
		contrib, bias := tree.Explain(x)
		sum := bias
		for _, c := range contrib {
			sum += c
		}
		if math.Abs(sum-tree.PredictProba(x)) > 1e-12 {
			t.Fatalf("bias+contributions = %g, prediction = %g", sum, tree.PredictProba(x))
		}
	}
}

func TestExplainAttributesToUsedFeaturesOnly(t *testing.T) {
	// Feature 1 is constant, so no split can use it; its contribution
	// must be exactly zero.
	xs := make([][]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = []float64{float64(i), 42}
		if i >= 50 {
			ys[i] = 1
		}
	}
	tree := growClassifier(t, xs, ys, Config{MaxDepth: 3})
	contrib, _ := tree.Explain([]float64{75, 42})
	if contrib[1] != 0 {
		t.Fatalf("constant feature got contribution %g", contrib[1])
	}
	if contrib[0] <= 0 {
		t.Fatalf("splitting feature contribution = %g, want positive toward class 1", contrib[0])
	}
}

// TestWidenFeatures grows trees on a column projection of wider rows,
// then widens them: each widened tree must score a full-width row
// exactly as its unwidened copy scores the projected row.
func TestWidenFeatures(t *testing.T) {
	xs, ys := xorData(400, 10)
	cols := []int{3, 1}
	wide := make([][]float64, len(xs))
	for i, x := range xs {
		wide[i] = []float64{float64(i), x[1], -1, x[0]}
	}
	clf := growClassifier(t, xs, ys, Config{MaxDepth: 6, MinSamplesLeaf: 5})
	reg := growRegressor(t, xs, ys, Config{MaxDepth: 4})
	narrowClf, err := ImportClassifier(clf.Export())
	if err != nil {
		t.Fatal(err)
	}
	narrowReg, err := ImportRegressor(reg.Export())
	if err != nil {
		t.Fatal(err)
	}
	// cols maps projected feature j to wide feature cols[j]: xs[i][0]
	// is wide[i][3] and xs[i][1] is wide[i][1].
	clf.WidenFeatures(cols, 4)
	reg.WidenFeatures(cols)
	for i := range xs {
		if a, b := clf.PredictProba(wide[i]), narrowClf.PredictProba(xs[i]); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("row %d: widened classifier %v, projected %v", i, a, b)
		}
		if a, b := reg.Apply(wide[i]), narrowReg.Apply(xs[i]); a != b {
			t.Fatalf("row %d: widened regressor leaf %d, projected %d", i, a, b)
		}
	}
	if got := clf.Export(); got.Width != 4 {
		t.Fatalf("widened classifier width %d, want 4", got.Width)
	}
}
