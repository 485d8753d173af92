package tree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ml/matrix"
	"repro/internal/ml/mltest"
)

// raceEnabled is set by race_test.go: under the race detector
// sync.Pool drops a share of the items put back, so allocation counts
// of pooled growth are not fixed there.
var raceEnabled bool

// rankData draws n rows over width features whose values are the ranks
// 0..n-1 in an independent random order per feature, so with n ≤ 256
// every feature gets one bin per value and bin b holds value b. Labels
// are 0/1 and lean on feature 0.
func rankData(n, width int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, width)
	}
	for f := 0; f < width; f++ {
		for i, v := range r.Perm(n) {
			xs[i][f] = float64(v)
		}
	}
	ys := make([]float64, n)
	for i := range ys {
		if (xs[i][0] >= float64(n)/2) != (r.Float64() < 0.2) {
			ys[i] = 1
		}
	}
	return xs, ys
}

// kept returns the rows and targets with positive weight, each row
// repeated weight times: the physical sample set weights stand for.
func kept(xs [][]float64, ys []float64, w []int) ([][]float64, []float64) {
	var kx [][]float64
	var ky []float64
	for i := range xs {
		for k := 0; k < w[i]; k++ {
			kx = append(kx, xs[i])
			ky = append(ky, ys[i])
		}
	}
	return kx, ky
}

func buildMatrix(t testing.TB, xs [][]float64, bins int) *matrix.BinnedMatrix {
	t.Helper()
	m, err := matrix.Build(mltest.Rows(xs), bins, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScanSparseBinsMatchesOracle grows on a node whose rows touch
// only bins 0, 63, 64, 127, 128 and 255 of a 256-bin feature: both
// ends of every bitmap word and the first bit after each word
// boundary. Every kept row has weight 1, so the exact oracle on the
// kept rows is the reference.
func TestScanSparseBinsMatchesOracle(t *testing.T) {
	xs, ys := rankData(256, 3, 5)
	m := buildMatrix(t, xs, 0)
	if nb := m.NumBins(0); nb != 256 {
		t.Fatalf("feature 0 has %d bins, want 256", nb)
	}
	touched := map[float64]bool{0: true, 63: true, 64: true, 127: true, 128: true, 255: true}
	w := make([]int, len(xs))
	col := m.Column(0)
	for i := range xs {
		if touched[xs[i][0]] {
			w[i] = 1
			if float64(col[i]) != xs[i][0] {
				t.Fatalf("value %g binned to %d", xs[i][0], col[i])
			}
		}
	}
	// Alternate the labels over the six values so the best first split
	// lands inside the range, not at an end.
	for i := range ys {
		ys[i] = float64(int(xs[i][0]) / 64 % 2)
	}
	kx, ky := kept(xs, ys, w)
	for _, cfg := range []Config{{MaxDepth: 6}, {MaxDepth: 6, MaxFeatures: 1, Seed: 3}} {
		want := GrowClassifier(kx, ky, cfg)
		got := GrowClassifierBinned(m, ys, w, cfg)
		if !reflect.DeepEqual(want.Export(), got.Export()) {
			t.Fatalf("cfg %+v: sparse-bin tree differs from exact tree:\n got %+v\nwant %+v", cfg, got.Export(), want.Export())
		}
		if len(got.nodes) < 3 {
			t.Fatalf("cfg %+v: %d nodes, want a split", cfg, len(got.nodes))
		}
	}
}

// TestScanSingleBinNode grows on rows that all share feature 0's bin:
// that feature offers no candidate at any node, and when every
// feature is single-bin the root is the only node.
func TestScanSingleBinNode(t *testing.T) {
	xs, ys := rankData(200, 2, 6)
	// Feature 0 takes one value among the kept rows, feature 1 varies.
	for i := range xs {
		xs[i][0] = float64(i % 2)
	}
	m := buildMatrix(t, xs, 0)
	w := make([]int, len(xs))
	for i := range w {
		if xs[i][0] == 1 {
			w[i] = 1
		}
	}
	kx, ky := kept(xs, ys, w)
	want := GrowClassifier(kx, ky, Config{MaxDepth: 5})
	got := GrowClassifierBinned(m, ys, w, Config{MaxDepth: 5})
	if !reflect.DeepEqual(want.Export(), got.Export()) {
		t.Fatal("single-bin-feature tree differs from exact tree")
	}
	for _, n := range got.Export().Nodes {
		if n.Feature == 0 {
			t.Fatal("split on a feature whose rows share one bin")
		}
	}
	// Keep one row: every feature is single-bin at the root.
	one := make([]int, len(xs))
	one[7] = 3
	if n := len(GrowClassifierBinned(m, ys, one, Config{}).nodes); n != 1 {
		t.Fatalf("single-row tree has %d nodes", n)
	}
}

// TestScanBinBudgets grows the same 256-value data under a 2-bin and a
// 256-bin budget. At 256 bins the engine is exact. At 2 bins each
// feature splits only between its two bins, so the oracle on data
// collapsed to each bin's inner bound (the low bin's highest value,
// the high bin's lowest) is the reference: its midpoints are the
// matrix's cut points.
func TestScanBinBudgets(t *testing.T) {
	xs, ys := rankData(256, 3, 7)
	cfg := Config{MaxDepth: 8, MinSamplesLeaf: 2}
	if got, want := GrowClassifierBinned(buildMatrix(t, xs, 256), ys, nil, cfg), GrowClassifier(xs, ys, cfg); !reflect.DeepEqual(want.Export(), got.Export()) {
		t.Fatal("256-bin tree differs from exact tree")
	}
	m := buildMatrix(t, xs, 2)
	collapsed := make([][]float64, len(xs))
	for i := range collapsed {
		collapsed[i] = make([]float64, len(xs[i]))
	}
	for f := 0; f < m.Cols(); f++ {
		if m.NumBins(f) != 2 {
			t.Fatalf("feature %d has %d bins, want 2", f, m.NumBins(f))
		}
		col := m.Column(f)
		bound := [2]float64{-1, 1e9} // highest of bin 0, lowest of bin 1
		for i := range xs {
			if v := xs[i][f]; col[i] == 0 {
				bound[0] = max(bound[0], v)
			} else {
				bound[1] = min(bound[1], v)
			}
		}
		for i := range xs {
			collapsed[i][f] = bound[col[i]]
		}
	}
	if got, want := GrowClassifierBinned(m, ys, nil, cfg), GrowClassifier(collapsed, ys, cfg); !reflect.DeepEqual(want.Export(), got.Export()) {
		t.Fatal("2-bin tree differs from the exact tree on bin-collapsed data")
	}
}

// growCase is one fit of TestPooledGrowersReused: a shape, a tree kind
// and whether rows are left out.
type growCase struct {
	rows, width, levels int
	regression          bool
	weighted            bool
}

func (c growCase) String() string {
	return fmt.Sprintf("%dx%d levels=%d regression=%v weighted=%v", c.rows, c.width, c.levels, c.regression, c.weighted)
}

// fit is one prepared fit: the histogram engine's inputs and the
// exact oracle's export over the weight-duplicated rows.
type fit struct {
	m          *matrix.BinnedMatrix
	ys         []float64
	w          []int
	cfg        Config
	regression bool
	want       Exported
}

func (c growCase) prepare(t *testing.T, seed int64) fit {
	xs, ys := gridData(c.rows, c.width, c.levels, seed)
	if c.regression {
		r := rand.New(rand.NewSource(seed + 1))
		for i := range ys {
			ys[i] = float64(r.Intn(9) - 4)
		}
	}
	w := make([]int, len(xs))
	for i := range w {
		w[i] = 1
	}
	if c.weighted {
		r := rand.New(rand.NewSource(seed + 2))
		for i := range w {
			w[i] = r.Intn(2)
		}
	}
	kx, ky := kept(xs, ys, w)
	f := fit{m: buildMatrix(t, xs, 0), ys: ys, w: w, cfg: Config{MaxDepth: 7, MaxFeatures: -1, Seed: seed}, regression: c.regression}
	if c.regression {
		f.want = GrowRegressor(kx, ky, f.cfg).Export()
	} else {
		f.want = GrowClassifier(kx, ky, f.cfg).Export()
	}
	return f
}

// grow fits on the histogram engine.
func (f fit) grow() Exported {
	if f.regression {
		return GrowRegressorBinned(f.m, f.ys, f.w, f.cfg).Export()
	}
	return GrowClassifierBinned(f.m, f.ys, f.w, f.cfg).Export()
}

var pooledCases = []growCase{
	{rows: 500, width: 6, levels: 17},
	{rows: 40, width: 2, levels: 5},
	{rows: 900, width: 9, levels: 31, regression: true},
	{rows: 120, width: 3, levels: 7, weighted: true},
	{rows: 700, width: 5, levels: 200, regression: true, weighted: true},
	{rows: 60, width: 8, levels: 3},
}

// TestPooledGrowersReused runs fits of different row counts, widths and
// tree kinds (a regressor after a classifier and back) one after
// another, so pooled growers carry buffers, histograms and a sampler
// from one shape into the next; then the same fits concurrently. Every
// tree must equal the exact oracle's. Weighted cases leave rows out
// (weight 0 or 1), where the oracle's sums are the engine's bit for
// bit; multiplicities above 1 are TestWeightedMatchesDuplicated's.
func TestPooledGrowersReused(t *testing.T) {
	fits := make([]fit, len(pooledCases))
	for i, c := range pooledCases {
		fits[i] = c.prepare(t, int64(i+1))
	}
	for pass := 0; pass < 2; pass++ {
		for i, f := range fits {
			if !reflect.DeepEqual(f.grow(), f.want) {
				t.Fatalf("pass %d case %v: pooled tree differs from exact tree", pass, pooledCases[i])
			}
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < 4*len(fits); k++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !reflect.DeepEqual(fits[i].grow(), fits[i].want) {
				t.Errorf("concurrent case %v: pooled tree differs from exact tree", pooledCases[i])
			}
		}(k % len(fits))
	}
	wg.Wait()
}

// TestGrowAllocatesOnlyTheModel pins the pooled grower: after warm-up
// a classifier tree allocates its node arena and the Classifier, and a
// regressor also its leaf index.
func TestGrowAllocatesOnlyTheModel(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	xs, ys := gridData(2000, 8, 40, 9)
	m := buildMatrix(t, xs, 0)
	w := make([]int, len(xs))
	for i := range w {
		w[i] = 1 + i%3
	}
	cfg := Config{MaxDepth: 10, MaxFeatures: -1, Seed: 4}
	GrowClassifierBinned(m, ys, w, cfg)
	if n := testing.AllocsPerRun(50, func() { GrowClassifierBinned(m, ys, w, cfg) }); n != 2 {
		t.Fatalf("GrowClassifierBinned allocates %v times per tree, want 2", n)
	}
	if n := testing.AllocsPerRun(50, func() { GrowRegressorBinned(m, ys, w, cfg) }); n != 3 {
		t.Fatalf("GrowRegressorBinned allocates %v times per tree, want 3", n)
	}
}

// BenchmarkGrowClassifierBinned grows one forest-style tree (√width
// features per split, bootstrap weights) per op: the per-tree fixed
// costs dominate at 200 rows, split search at 2,000.
func BenchmarkGrowClassifierBinned(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			xs, ys := gridData(n, 16, 1000, 1)
			m := buildMatrix(b, xs, 0)
			r := rand.New(rand.NewSource(2))
			w := make([]int, n)
			for range w {
				w[r.Intn(n)]++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GrowClassifierBinned(m, ys, w, Config{MaxDepth: 12, MaxFeatures: -1, Seed: int64(i)})
			}
		})
	}
}
