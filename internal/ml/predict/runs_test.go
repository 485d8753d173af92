package predict

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml/tree"
)

// Row-mix bits of runRows: which kinds of step a row sequence takes.
const (
	mixRepeat    = 1 << iota // a row repeats its predecessor
	mixOnSplit               // a value sits exactly on a split threshold
	mixNaN                   // a value is NaN
	mixInf                   // a value is +Inf or -Inf
	mixZero                  // a value is -0 or +0
	mixThreshold             // the trees also split at 0, -0, ±Inf and NaN
	mixAll       = 1<<iota - 1
)

// poolTree grows a random tree whose split thresholds come from pool,
// so trees share thresholds and rows can land exactly on them. A
// leafP of 1 grows a single leaf.
func poolTree(r *rand.Rand, width, maxDepth int, leafP float64, pool []float64) tree.Exported {
	var nodes []tree.ExportedNode
	var grow func(depth int) int
	grow = func(depth int) int {
		self := len(nodes)
		nodes = append(nodes, tree.ExportedNode{Feature: -1, Value: r.NormFloat64()})
		if depth >= maxDepth || r.Float64() < leafP {
			return self
		}
		nodes[self].Feature = r.Intn(width)
		nodes[self].Threshold = pool[r.Intn(len(pool))]
		l := grow(depth + 1)
		rr := grow(depth + 1)
		nodes[self].Left = l
		nodes[self].Right = rr
		return self
	}
	grow(0)
	return tree.Exported{Nodes: nodes, Width: width}
}

// thresholdPool draws n random thresholds, plus the special values
// when mix asks for them.
func thresholdPool(r *rand.Rand, n int, mix uint8) []float64 {
	pool := make([]float64, n)
	for i := range pool {
		pool[i] = math.Round(r.NormFloat64()*8) / 8
	}
	if mix&mixThreshold != 0 {
		pool = append(pool, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN())
	}
	return pool
}

// runEnsemble compiles a random forest (or GBDT when gbdt is set) of
// pool-threshold trees, some of them single leaves; large grows it
// past directNodes so the kernel walks the flat arrays.
func runEnsemble(t testing.TB, r *rand.Rand, width int, pool []float64, gbdt, large bool) *Ensemble {
	t.Helper()
	var trees []tree.Exported
	nodes, want := 0, 1+r.Intn(20)
	for len(trees) < want || (large && nodes <= directNodes) {
		leafP := 0.25
		depth := 1 + r.Intn(6)
		switch {
		case r.Intn(8) == 0:
			leafP = 1
		case large:
			depth = 10
		}
		tr := poolTree(r, width, depth, leafP, pool)
		trees = append(trees, tr)
		nodes += len(tr.Nodes)
	}
	var e *Ensemble
	var err error
	if gbdt {
		e, err = CompileGBDT(trees, r.NormFloat64(), 0.05+r.Float64())
	} else {
		e, err = CompileForest(trees)
	}
	if err != nil {
		t.Fatal(err)
	}
	if large != (e.aos == nil) {
		t.Fatalf("large = %v but the arena of %d nodes has mirror = %v", large, e.Nodes(), e.aos != nil)
	}
	return e
}

// runRows builds n rows in runs: each row starts as a copy of its
// predecessor (repeated outright under mixRepeat), then a few features
// step by a small drift or, as mix allows, onto a pool threshold, NaN,
// ±Inf or a signed zero. A new run starts every so often with fresh
// values, like the next drive in a drive-ordered arena.
func runRows(r *rand.Rand, n, width int, pool []float64, mix uint8) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, width)
		if i == 0 || r.Intn(40) == 0 {
			for j := range x {
				x[j] = r.NormFloat64()
			}
			xs[i] = x
			continue
		}
		copy(x, xs[i-1])
		xs[i] = x
		if mix&mixRepeat != 0 && r.Intn(3) == 0 {
			continue
		}
		for k := r.Intn(3); k >= 0; k-- {
			j := r.Intn(width)
			switch c := r.Intn(6); {
			case c == 1 && mix&mixOnSplit != 0:
				x[j] = pool[r.Intn(len(pool))]
			case c == 2 && mix&mixNaN != 0:
				x[j] = math.NaN()
			case c == 3 && mix&mixInf != 0:
				x[j] = math.Inf(1 - 2*r.Intn(2))
			case c == 4 && mix&mixZero != 0:
				x[j] = math.Copysign(0, float64(1-2*r.Intn(2)))
			default:
				if math.IsNaN(x[j]) || math.IsInf(x[j], 0) {
					x[j] = 0
				}
				x[j] += r.NormFloat64() / 16
			}
		}
	}
	return xs
}

// checkRuns scores xs with the direct kernel and through runs — one
// run over all rows, and a fresh run every few rows, as worker blocks
// restart — and demands Float64bits-equal scores.
func checkRuns(t *testing.T, e *Ensemble, xs [][]float64) {
	t.Helper()
	want := make([]float64, len(xs))
	e.PredictProbaBatch(xs, want, 1)
	for _, block := range []int{len(xs), 7} {
		var run *Run
		for i, x := range xs {
			if i%max(block, 1) == 0 {
				run = e.NewRun()
			}
			if got := run.Score(x); math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("block=%d row %d %v: differential %v != direct %v", block, i, x, got, want[i])
			}
		}
	}
}

// FuzzDifferentialVsDirect checks the differential kernel against the
// direct one, bit for bit, on random ensembles and random row runs.
// mode bit 0 selects GBDT over the forest, bit 1 an arena above
// directNodes; mix selects the row and threshold kinds (mix* bits).
func FuzzDifferentialVsDirect(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(1), uint8(mixRepeat))
	f.Add(int64(3), uint8(200), uint8(0), uint8(mixOnSplit))
	f.Add(int64(4), uint8(200), uint8(1), uint8(mixNaN))
	f.Add(int64(5), uint8(200), uint8(0), uint8(mixInf))
	f.Add(int64(6), uint8(200), uint8(1), uint8(mixZero|mixThreshold))
	f.Add(int64(7), uint8(255), uint8(2), uint8(mixAll))
	f.Add(int64(8), uint8(255), uint8(3), uint8(mixAll))
	f.Add(int64(9), uint8(1), uint8(1), uint8(mixAll))
	f.Fuzz(func(t *testing.T, seed int64, n, mode, mix uint8) {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(8)
		pool := thresholdPool(r, 1+r.Intn(12), mix)
		e := runEnsemble(t, r, width, pool, mode&1 != 0, mode&2 != 0)
		checkRuns(t, e, runRows(r, int(n), width, pool, mix))
	})
}

// TestRunsMatchesDirect covers what the fuzz seeds are too short for:
// long runs of rows on both arena kinds and both ensembles.
func TestRunsMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		pool := thresholdPool(r, 10, mixAll)
		e := runEnsemble(t, r, 6, pool, seed&1 != 0, seed&2 != 0)
		checkRuns(t, e, runRows(r, 9000, 6, pool, mixAll))
	}
}

// TestRunTables pins the table layout on a hand-built ensemble: one
// slot per distinct threshold per feature, -0 folded into +0, a NaN
// split and leaves left out, each slot listing its split nodes with
// their preorder subtree intervals.
func TestRunTables(t *testing.T) {
	negZero := math.Copysign(0, -1)
	split := func(f int, thr float64) []tree.ExportedNode {
		return []tree.ExportedNode{
			{Feature: f, Threshold: thr, Left: 1, Right: 2},
			{Feature: -1, Value: 1}, {Feature: -1, Value: 2},
		}
	}
	twoSplits := func(f int, a, b float64) []tree.ExportedNode {
		return []tree.ExportedNode{
			{Feature: f, Threshold: a, Left: 1, Right: 2},
			{Feature: f, Threshold: b, Left: 3, Right: 4},
			{Feature: -1}, {Feature: -1}, {Feature: -1},
		}
	}
	e, err := CompileForest([]tree.Exported{
		{Nodes: twoSplits(2, 0.5, 0.5)},             // tree 0: 0.5 twice
		{Nodes: split(2, negZero)},                  // tree 1: -0
		{Nodes: split(0, math.NaN())},               // tree 2: NaN, left out
		{Nodes: []tree.ExportedNode{{Feature: -1}}}, // tree 3: a leaf
		{Nodes: twoSplits(2, 0, 0.5)},               // tree 4: +0 and 0.5
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := e.runs()
	if len(rt.feats) != 1 || rt.feats[0] != 2 {
		t.Fatalf("feats = %v, want [2]", rt.feats)
	}
	wantBounds := []float64{math.NaN(), 0, 0.5, math.Inf(1), math.NaN()}
	if len(rt.bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", rt.bounds, wantBounds)
	}
	for i, b := range wantBounds {
		if math.Float64bits(rt.bounds[i]) != math.Float64bits(b) {
			t.Fatalf("bounds = %v, want %v", rt.bounds, wantBounds)
		}
	}
	// Arena nodes: tree 0 is 0–4, tree 1 5–7, tree 2 8–10, tree 3 11,
	// tree 4 12–16. Preorder visits tree 0 as 0, 1, 3, 4, 2 (numbers
	// 0–4), and tree 4 likewise as 12, 13, 15, 16, 14 (numbers 12–16).
	wantSplits := [][]slotSplit{{}, {{1, 5, 3}, {4, 12, 5}}, {{0, 0, 5}, {0, 1, 3}, {4, 13, 3}}, {}}
	wantEnter := []int32{0, 1, 4, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 14, 15}
	for i, want := range wantEnter {
		if rt.enter[i] != want {
			t.Fatalf("enter = %v, want %v", rt.enter, wantEnter)
		}
	}
	for p, want := range wantSplits {
		got := rt.splits[rt.start[p]:rt.start[p+1]]
		if len(got) != len(want) {
			t.Fatalf("slot %d splits = %v, want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slot %d splits = %v, want %v", p, got, want)
			}
		}
	}
	checkRuns(t, e, [][]float64{
		{0, 0, negZero}, {0, 0, 0}, {0, 0, 0.25}, {0, 0, 0.5}, {0, 0, 0.75},
		{0, 0, math.NaN()}, {0, 0, math.Inf(1)}, {0, 0, math.Inf(-1)}, {0, 0, -1},
	})
}

// TestRunsEmptyAndMismatch covers a run with no trees and no splits
// (a bias-only GBDT, whose every row scores the bias) and a row
// narrower than the ensemble, which a run rejects like PredictProba.
func TestRunsEmptyAndMismatch(t *testing.T) {
	e, err := CompileGBDT(nil, 0.3, 0.1) // bias only: no splits at all
	if err != nil {
		t.Fatal(err)
	}
	checkRuns(t, e, [][]float64{{}, {1}, {2}})
	r := rand.New(rand.NewSource(1))
	pool := thresholdPool(r, 4, 0)
	e = runEnsemble(t, r, 5, pool, false, false)
	run := e.NewRun()
	run.Score(make([]float64, e.width))
	defer func() {
		if recover() == nil {
			t.Fatal("a row narrower than the ensemble was accepted")
		}
	}()
	run.Score(make([]float64, e.width-1))
}

// FuzzRunResumeVsDirect interleaves k runs of one ensemble, as a
// scorer resumes each drive's run once a day: every step picks a run
// at random and scores that run's next row, so runs advance in a
// random order, and each run's scores must be Float64bits-equal to
// the direct kernel's on the same rows. mode bit 0 selects GBDT over
// the forest, bit 1 an arena above directNodes; mix selects the row
// and threshold kinds (mix* bits), repeats included.
func FuzzRunResumeVsDirect(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(200), uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(200), uint8(1), uint8(mixRepeat|mixOnSplit))
	f.Add(int64(3), uint8(1), uint8(200), uint8(0), uint8(mixNaN|mixInf))
	f.Add(int64(4), uint8(8), uint8(255), uint8(1), uint8(mixZero|mixThreshold))
	f.Add(int64(5), uint8(4), uint8(255), uint8(2), uint8(mixAll))
	f.Add(int64(6), uint8(6), uint8(255), uint8(3), uint8(mixAll))
	f.Add(int64(7), uint8(2), uint8(1), uint8(0), uint8(mixAll))
	f.Fuzz(func(t *testing.T, seed int64, k, n, mode, mix uint8) {
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(8)
		pool := thresholdPool(r, 1+r.Intn(12), mix)
		e := runEnsemble(t, r, width, pool, mode&1 != 0, mode&2 != 0)
		seqs := make([][][]float64, 1+int(k)%8)
		for i := range seqs {
			seqs[i] = runRows(r, int(n)/len(seqs)+1, width, pool, mix)
		}
		runs := make([]*Run, len(seqs))
		next := make([]int, len(seqs))
		for left := len(seqs); left > 0; {
			i := r.Intn(len(seqs))
			if next[i] == len(seqs[i]) {
				continue // exhausted; pick again
			}
			if runs[i] == nil {
				runs[i] = e.NewRun()
			}
			x := seqs[i][next[i]]
			var want [1]float64
			e.PredictProbaBatch([][]float64{x}, want[:], 1)
			if got := runs[i].Score(x); math.Float64bits(got) != math.Float64bits(want[0]) {
				t.Fatalf("run %d row %d %v: resumed %v != direct %v", i, next[i], x, got, want[0])
			}
			if next[i]++; next[i] == len(seqs[i]) {
				left--
			}
		}
	})
}
