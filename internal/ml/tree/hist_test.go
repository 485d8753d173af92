package tree

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml/matrix"
	"repro/internal/ml/mltest"
)

// gridData draws n rows over width features, each feature taking one
// of `levels` distinct values, with 0/1 labels correlated to the first
// feature. With levels ≤ the bin budget the histogram engine is in
// its exactness regime; 0/1 labels keep every accumulated statistic
// integer-valued, hence bit-exact in float64.
func gridData(n, width, levels int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, width)
		for f := range xs[i] {
			xs[i][f] = float64(r.Intn(levels)) * 0.25
		}
		if xs[i][0] > float64(levels-1)*0.25/2 != (r.Float64() < 0.1) {
			ys[i] = 1
		}
	}
	return xs, ys
}

// TestHistogramMatchesExactClassifier is the headline equivalence
// guarantee: with one bin per distinct value and integer-valued
// targets, the histogram engine grows trees bit-identical to the
// exact sort-based oracle (oracle_test.go) — same structure,
// thresholds, leaf values, and gains.
func TestHistogramMatchesExactClassifier(t *testing.T) {
	cfgs := []Config{
		{MaxDepth: 6},
		{MaxDepth: 12, MinSamplesLeaf: 5},
		{MaxDepth: 8, MaxFeatures: 2, Seed: 9},
		{MaxDepth: 8, MaxFeatures: -1, Seed: 4, MinSamplesSplit: 10},
	}
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 3; seed++ {
			xs, ys := gridData(500, 6, 17, seed)
			m, err := matrix.Build(mltest.Rows(xs), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			exact := GrowClassifier(xs, ys, cfg)
			hist := GrowClassifierBinned(m, ys, nil, cfg)
			if !reflect.DeepEqual(exact.Export(), hist.Export()) {
				t.Fatalf("cfg %d seed %d: histogram tree differs from exact tree", ci, seed)
			}
		}
	}
}

func TestHistogramMatchesExactRegressor(t *testing.T) {
	// Integer targets keep sums exact; the equivalence is bit-level.
	r := rand.New(rand.NewSource(11))
	xs, _ := gridData(400, 4, 23, 12)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = float64(r.Intn(7) - 3)
	}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{MaxDepth: 5}, {MaxDepth: 9, MinSamplesLeaf: 4, MaxFeatures: 2, Seed: 2}} {
		exact := GrowRegressor(xs, ys, cfg)
		hist := GrowRegressorBinned(m, ys, nil, cfg)
		if !reflect.DeepEqual(exact.Export(), hist.Export()) {
			t.Fatal("histogram regression tree differs from exact tree")
		}
		if exact.NumLeaves() != hist.NumLeaves() {
			t.Fatalf("leaf counts differ: %d vs %d", exact.NumLeaves(), hist.NumLeaves())
		}
	}
}

// TestWeightedMatchesDuplicated checks the weight-based bagging
// identity: growing on per-row integer weights is the same tree as
// growing the sort-based oracle on a physically duplicated sample set.
func TestWeightedMatchesDuplicated(t *testing.T) {
	xs, ys := gridData(300, 4, 13, 21)
	r := rand.New(rand.NewSource(22))
	w := make([]int, len(xs))
	var dupXs [][]float64
	var dupYs []float64
	for i := 0; i < len(xs); i++ {
		j := r.Intn(len(xs))
		w[j]++
	}
	for i := range xs {
		for k := 0; k < w[i]; k++ {
			dupXs = append(dupXs, xs[i])
			dupYs = append(dupYs, ys[i])
		}
	}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxDepth: 7, MinSamplesLeaf: 3}
	exact := GrowClassifier(dupXs, dupYs, cfg)
	hist := GrowClassifierBinned(m, ys, w, cfg)

	ee, he := exact.Export(), hist.Export()
	if len(ee.Nodes) != len(he.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(ee.Nodes), len(he.Nodes))
	}
	for i := range ee.Nodes {
		a, b := ee.Nodes[i], he.Nodes[i]
		// Gains may differ by float ulps (duplicate-row summation order
		// vs weighted multiplication); everything else must match.
		a.Gain, b.Gain = 0, 0
		if a != b {
			t.Fatalf("node %d differs: %+v vs %+v", i, ee.Nodes[i], he.Nodes[i])
		}
	}
}

func TestHistogramQuantizedStillLearns(t *testing.T) {
	// Far more distinct values than bins: thresholds are quantised but
	// the tree must still separate an easy threshold pattern.
	r := rand.New(rand.NewSource(31))
	xs := make([][]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		if xs[i][0] > 0.3 {
			ys[i] = 1
		}
	}
	m, err := matrix.Build(mltest.Rows(xs), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := GrowClassifierBinned(m, ys, nil, Config{MaxDepth: 6})
	correct := 0
	for i := range xs {
		pred := 0.0
		if tree.PredictProba(xs[i]) >= 0.5 {
			pred = 1
		}
		if pred == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.97 {
		t.Fatalf("quantised accuracy = %g", acc)
	}
}

func TestHistogramConstantFeaturesLeafOnly(t *testing.T) {
	// Every feature constant: no split exists, the root is a leaf with
	// the class prior.
	xs := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	ys := []float64{1, 0, 1, 1}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := GrowClassifierBinned(m, ys, nil, Config{})
	if len(tree.nodes) != 1 {
		t.Fatalf("constant matrix grew %d nodes", len(tree.nodes))
	}
	if got := tree.PredictProba([]float64{1, 2}); got != 0.75 {
		t.Fatalf("leaf value = %g, want 0.75", got)
	}
}

func TestHistogramSingleSampleNode(t *testing.T) {
	// One row: immediate leaf, no split search, no panic.
	m, err := matrix.Build(mltest.Rows([][]float64{{3, 1}}), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := GrowClassifierBinned(m, []float64{1}, nil, Config{})
	if len(tree.nodes) != 1 || tree.PredictProba([]float64{3, 1}) != 1 {
		t.Fatal("single-sample tree wrong")
	}
	reg := GrowRegressorBinned(m, []float64{2.5}, nil, Config{})
	if reg.NumLeaves() != 1 || reg.Predict([]float64{0, 0}) != 2.5 {
		t.Fatal("single-sample regression tree wrong")
	}
}

func TestHistogramAllZeroWeights(t *testing.T) {
	m, err := matrix.Build(mltest.Rows([][]float64{{1}, {2}, {3}}), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree := GrowClassifierBinned(m, []float64{1, 1, 1}, []int{0, 0, 0}, Config{})
	if len(tree.nodes) != 1 || tree.PredictProba([]float64{1}) != 0 {
		t.Fatal("all-zero weights should yield a degenerate zero leaf")
	}
}

func TestHistogramZeroWeightRowsExcluded(t *testing.T) {
	// Rows with weight 0 must not influence the tree: growing with
	// half the rows zero-weighted equals growing on the kept half.
	xs, ys := gridData(400, 3, 11, 41)
	w := make([]int, len(xs))
	var keptXs [][]float64
	var keptYs []float64
	for i := range xs {
		if i%2 == 0 {
			w[i] = 1
			keptXs = append(keptXs, xs[i])
			keptYs = append(keptYs, ys[i])
		}
	}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxDepth: 6, MinSamplesLeaf: 2}
	weighted := GrowClassifierBinned(m, ys, w, cfg)
	exact := GrowClassifier(keptXs, keptYs, cfg)
	for i := range keptXs {
		if weighted.PredictProba(keptXs[i]) != exact.PredictProba(keptXs[i]) {
			t.Fatal("zero-weight rows leaked into the tree")
		}
	}
}

func TestHistogramMinSamplesLeafWeighted(t *testing.T) {
	// A weight-3 row counts as 3 samples toward the leaf floor, just
	// as three physical copies would.
	xs, ys := gridData(200, 3, 9, 51)
	w := make([]int, len(xs))
	for i := range w {
		w[i] = 3
	}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := GrowClassifierBinned(m, ys, w, Config{MaxDepth: 20, MinSamplesLeaf: 90})
	// 200 rows × weight 3 = 600 weighted samples; a 90-sample floor
	// keeps the tree tiny, as with 600 physical rows.
	if len(big.nodes) > 13 {
		t.Fatalf("tree has %d nodes despite weighted MinSamplesLeaf", len(big.nodes))
	}
}

func TestHistogramDeterministicSubsampling(t *testing.T) {
	xs, ys := gridData(300, 8, 15, 61)
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxDepth: 8, MaxFeatures: 3, Seed: 7}
	a := GrowClassifierBinned(m, ys, nil, cfg)
	b := GrowClassifierBinned(m, ys, nil, cfg)
	if !reflect.DeepEqual(a.Export(), b.Export()) {
		t.Fatal("same seed produced different histogram trees")
	}
}

func TestHistogramRegressorSetLeafValue(t *testing.T) {
	xs, _ := gridData(100, 2, 7, 71)
	r := rand.New(rand.NewSource(72))
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = float64(r.Intn(5))
	}
	m, err := matrix.Build(mltest.Rows(xs), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := GrowRegressorBinned(m, ys, nil, Config{MaxDepth: 3})
	leaf := reg.Apply(xs[0])
	reg.SetLeafValue(leaf, -42)
	if got := reg.Predict(xs[0]); got != -42 {
		t.Fatalf("Predict after SetLeafValue = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad leaf id should panic")
		}
	}()
	reg.SetLeafValue(reg.NumLeaves(), 0)
}

func TestHistogramMismatchedShapesPanic(t *testing.T) {
	m, err := matrix.Build(mltest.Rows([][]float64{{1}, {2}}), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { GrowClassifierBinned(m, []float64{1}, nil, Config{}) },
		func() { GrowClassifierBinned(m, []float64{1, 0}, []int{1}, Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch accepted")
				}
			}()
			f()
		}()
	}
}
