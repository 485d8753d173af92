package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/tree"
)

// randTree grows a random but structurally valid exported tree in the
// same arena layout the growers emit: parent appended before children,
// children rebased within the tree.
func randTree(r *rand.Rand, width, maxDepth int) tree.Exported {
	var nodes []tree.ExportedNode
	var grow func(depth int) int
	grow = func(depth int) int {
		self := len(nodes)
		nodes = append(nodes, tree.ExportedNode{Feature: -1, Value: r.NormFloat64()})
		if depth >= maxDepth || r.Float64() < 0.3 {
			return self
		}
		nodes[self].Feature = r.Intn(width)
		nodes[self].Threshold = r.NormFloat64()
		l := grow(depth + 1)
		rr := grow(depth + 1)
		nodes[self].Left = l
		nodes[self].Right = rr
		return self
	}
	grow(0)
	return tree.Exported{Nodes: nodes, Width: width}
}

func randRows(r *rand.Rand, n, width int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, width)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
	}
	return xs
}

// walk is the pointer-chasing oracle: the plain per-row descent the
// training-time representation performs.
func walk(t tree.Exported, x []float64) float64 {
	i := 0
	for t.Nodes[i].Feature >= 0 {
		if x[t.Nodes[i].Feature] <= t.Nodes[i].Threshold {
			i = t.Nodes[i].Left
		} else {
			i = t.Nodes[i].Right
		}
	}
	return t.Nodes[i].Value
}

// forestRef reproduces forest.Model.PredictProba's arithmetic exactly:
// sum in tree order, one divide.
func forestRef(trees []tree.Exported, x []float64) float64 {
	var s float64
	for _, t := range trees {
		s += walk(t, x)
	}
	return s / float64(len(trees))
}

// gbdtRef reproduces gbdt.Model.PredictProba's arithmetic exactly:
// bias, plus lr·leaf per tree in order, then the sigmoid.
func gbdtRef(trees []tree.Exported, bias, lr float64, x []float64) float64 {
	s := bias
	for _, t := range trees {
		s += lr * walk(t, x)
	}
	return 1 / (1 + math.Exp(-s))
}

func checkExact(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // exact equality, not a tolerance
			t.Fatalf("%s: row %d: flattened %v != pointer-walk %v", name, i, got[i], want[i])
		}
	}
}

// TestFlatMatchesPointerWalk is the engine's core property: for random
// ensembles and random rows, the flattened batch kernel equals the
// pointer-walking per-row path bit for bit, at several worker counts
// and at batch sizes that straddle the block boundary.
func TestFlatMatchesPointerWalk(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(8)
		nTrees := 1 + r.Intn(12)
		trees := make([]tree.Exported, nTrees)
		for i := range trees {
			trees[i] = randTree(r, width, 1+r.Intn(6))
		}
		nRows := r.Intn(2*blockRows + 3)
		xs := randRows(r, nRows, width)

		fe, err := CompileForest(trees)
		if err != nil {
			t.Fatalf("seed %d: CompileForest: %v", seed, err)
		}
		ge, err := CompileGBDT(trees, r.NormFloat64(), 0.1+r.Float64())
		if err != nil {
			t.Fatalf("seed %d: CompileGBDT: %v", seed, err)
		}
		wantF := make([]float64, nRows)
		wantG := make([]float64, nRows)
		for i, x := range xs {
			wantF[i] = forestRef(trees, x)
			wantG[i] = gbdtRef(trees, ge.bias, ge.rate, x)
		}
		for _, workers := range []int{1, 2, 0} {
			got := make([]float64, nRows)
			fe.PredictProbaBatch(xs, got, workers)
			checkExact(t, "forest", got, wantF)
			ge.PredictProbaBatch(xs, got, workers)
			checkExact(t, "gbdt", got, wantG)
		}
		for i, x := range xs {
			if p := fe.PredictProba(x); p != wantF[i] {
				t.Fatalf("seed %d: per-row PredictProba %v != %v", seed, p, wantF[i])
			}
		}
	}
}

// TestLargeArenaMatchesPointerWalk pins the same bit-exactness property
// on an arena big enough to cross the directNodes dispatch threshold,
// so the padded tree-outer block kernel (not just the small-arena
// rows-direct walk) is exercised against the oracle.
func TestLargeArenaMatchesPointerWalk(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const width = 6
	trees := make([]tree.Exported, 400)
	for i := range trees {
		trees[i] = randTree(r, width, 10)
	}
	fe, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Nodes() <= directNodes {
		t.Fatalf("arena has %d nodes; grow the test ensemble past directNodes=%d", fe.Nodes(), directNodes)
	}
	ge, err := CompileGBDT(trees, -0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	xs := randRows(r, blockRows+7, width) // straddles a block boundary and the 4-row unroll
	wantF := make([]float64, len(xs))
	wantG := make([]float64, len(xs))
	for i, x := range xs {
		wantF[i] = forestRef(trees, x)
		wantG[i] = gbdtRef(trees, ge.bias, ge.rate, x)
	}
	for _, workers := range []int{1, 0} {
		got := make([]float64, len(xs))
		fe.PredictProbaBatch(xs, got, workers)
		checkExact(t, "forest/large", got, wantF)
		ge.PredictProbaBatch(xs, got, workers)
		checkExact(t, "gbdt/large", got, wantG)
	}
}

// FuzzFlatVsPointer drives the same property from fuzzed seeds; `go
// test` runs the seed corpus, `go test -fuzz` explores further.
func FuzzFlatVsPointer(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(0))
	f.Add(int64(-7), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(6)
		trees := []tree.Exported{randTree(r, width, 1+r.Intn(5)), randTree(r, width, 1+r.Intn(5))}
		xs := randRows(r, int(n), width)
		e, err := CompileForest(trees)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(xs))
		e.PredictProbaBatch(xs, got, 0)
		for i, x := range xs {
			if want := forestRef(trees, x); got[i] != want {
				t.Fatalf("row %d: %v != %v", i, got[i], want)
			}
		}
	})
}

// TestSingleNodeTrees covers leaf-only ensembles: every row gets the
// mean of the constants.
func TestSingleNodeTrees(t *testing.T) {
	trees := []tree.Exported{
		{Nodes: []tree.ExportedNode{{Feature: -1, Value: 0.25}}},
		{Nodes: []tree.ExportedNode{{Feature: -1, Value: 0.75}}},
	}
	e, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	if e.width != 0 {
		t.Fatalf("leaf-only width = %d, want 0", e.width)
	}
	out := make([]float64, 3)
	e.PredictProbaBatch([][]float64{{}, {1}, {2, 3}}, out, 1)
	for i, p := range out {
		if p != 0.5 {
			t.Fatalf("row %d: %v, want 0.5", i, p)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	e, err := CompileForest([]tree.Exported{{Nodes: []tree.ExportedNode{{Feature: -1, Value: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	e.PredictProbaBatch(nil, nil, 0) // must not panic or spin up workers
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	e, err := CompileForest([]tree.Exported{{Nodes: []tree.ExportedNode{{Feature: -1, Value: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched out length accepted")
		}
	}()
	e.PredictProbaBatch(make([][]float64, 2), make([]float64, 1), 1)
}

func TestCompileRejectsMalformedTrees(t *testing.T) {
	cases := map[string][]tree.Exported{
		"empty tree":         {{Nodes: nil}},
		"child out of range": {{Nodes: []tree.ExportedNode{{Feature: 0, Left: 0, Right: 5}}}},
		"self child": {{Nodes: []tree.ExportedNode{
			{Feature: 0, Left: 0, Right: 1}, {Feature: -1},
		}}},
		// A two-node cycle passes the per-node checks but would never
		// terminate a walk; the depth pass must reject it.
		"cycle": {{Nodes: []tree.ExportedNode{
			{Feature: 0, Left: 1, Right: 1},
			{Feature: 0, Left: 0, Right: 0},
		}}},
		// A diamond (shared child) is acyclic but still not a tree.
		"shared child": {{Nodes: []tree.ExportedNode{
			{Feature: 0, Left: 1, Right: 2},
			{Feature: 0, Left: 3, Right: 3},
			{Feature: 0, Left: 3, Right: 3},
			{Feature: -1},
		}}},
	}
	for name, trees := range cases {
		if _, err := CompileForest(trees); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
	if _, err := CompileGBDT(nil, 0, 0); err == nil {
		t.Error("non-positive learning rate accepted")
	}
}

func TestArenaAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	trees := []tree.Exported{randTree(r, 4, 4), randTree(r, 4, 4), randTree(r, 4, 4)}
	e, err := CompileForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.roots) != 3 {
		t.Fatalf("%d trees, want 3", len(e.roots))
	}
	total := 0
	for _, tr := range trees {
		total += len(tr.Nodes)
	}
	if e.Nodes() != total {
		t.Fatalf("Nodes() = %d, want %d", e.Nodes(), total)
	}
	if e.width < 1 || e.width > 4 {
		t.Fatalf("Width() = %d out of range", e.width)
	}
}
