package tree

// Histogram-based split finding over a columnar binned matrix
// (internal/ml/matrix). Instead of re-sorting the node's rows for
// every candidate feature — O(n log n) per feature per node — the
// engine accumulates per-bin (weighted count, Σwy, Σwy²) in one O(n)
// pass per feature and scans at most 256 bins for the best gain; the
// right-hand statistics come from parent-minus-left subtraction, so
// each candidate costs O(1).
//
// Bootstrap bagging is expressed as per-row integer weights on the
// shared matrix: a row drawn w times contributes w to every count and
// w·y to every sum, which reproduces exactly what w physical copies
// would contribute, without copying any row.
//
// Exactness: when every feature has one bin per distinct value
// (bins ≥ distinct values), the candidate thresholds, the candidate
// order, and — for integer-valued targets, whose partial sums are
// exact in float64 — every accumulated statistic coincide with those
// of an exact sort-based grower, so the two grow bit-identical trees.
// The equivalence tests in hist_test.go pin this down against the
// sort-based grower kept in oracle_test.go.

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ml/matrix"
)

// GrowClassifierBinned fits a gini tree on the binned matrix: ys must
// be 0/1, indexed by matrix row. weights are per-row bootstrap
// multiplicities (nil means one each); rows with weight 0 are left
// out of growth entirely.
func GrowClassifierBinned(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *Classifier {
	g := newHistGrower(m, ys, weights, cfg)
	defer rngPool.Put(g.sampler.rng)
	g.growRoot()
	return &Classifier{nodes: g.nodes, width: m.Cols()}
}

// GrowRegressorBinned fits a squared-error regression tree on the
// binned matrix. The same matrix can back every boosting round: only
// ys (the per-round gradients) and weights change.
func GrowRegressorBinned(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *Regressor {
	g := newHistGrower(m, ys, weights, cfg)
	defer rngPool.Put(g.sampler.rng)
	g.growRoot()
	return &Regressor{nodes: g.nodes, leafIndex: g.leafIdx}
}

// histGrower holds the histogram split engine's growth state. All
// scratch buffers are allocated once per tree and reused at every
// node, so growth allocates little beyond the node arena itself.
type histGrower struct {
	m   *matrix.BinnedMatrix
	cfg Config
	// Compact per-active-row state, one slot per positive-weight row in
	// matrix order: row is the matrix row, wc the bootstrap weight, yv
	// the target, and wy/wy2 cache w·y and w·y² so histogram
	// accumulation costs one add per statistic per row.
	row     []int
	wc      []int
	yv      []float64
	wy, wy2 []float64
	sampler *featureSampler

	nodes     []node
	leafCount int
	leafIdx   []int

	// idx is the single position arena (indexes into the compact state)
	// partitioned in place (hi spills through scratch); counts/sums/
	// sums2 are the per-feature bin histogram, sized to the matrix bin
	// ceiling.
	idx     []int
	scratch []int
	counts  []int
	sums    []float64
	sums2   []float64
}

// rngPool recycles the feature samplers' generators, one taken per
// grown tree (per forest tree, per boosting round): (*Rand).Seed
// resets a pooled generator to exactly the stream a fresh
// rand.New(rand.NewSource(seed)) would produce, without allocating a
// new source each time.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// newHistGrower sets up growth on m; its sampler's generator comes
// from rngPool, and the caller puts it back once growth is done.
func newHistGrower(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *histGrower {
	if len(ys) != m.Rows() {
		panic(fmt.Sprintf("tree: %d targets for %d matrix rows", len(ys), m.Rows()))
	}
	if weights != nil && len(weights) != m.Rows() {
		panic(fmt.Sprintf("tree: %d weights for %d matrix rows", len(weights), m.Rows()))
	}
	cfg = cfg.withDefaults()
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(cfg.Seed + 17)
	g := &histGrower{
		m:       m,
		cfg:     cfg,
		sampler: newFeatureSampler(rng, m.Cols()),
		counts:  make([]int, matrix.MaxBins),
		sums:    make([]float64, matrix.MaxBins),
		sums2:   make([]float64, matrix.MaxBins),
		row:     make([]int, 0, m.Rows()),
		wc:      make([]int, 0, m.Rows()),
	}
	for i := 0; i < m.Rows(); i++ {
		w := 1
		if weights != nil {
			w = weights[i]
		}
		if w > 0 {
			g.row = append(g.row, i)
			g.wc = append(g.wc, w)
		}
	}
	n := len(g.row)
	g.yv = make([]float64, n)
	g.wy = make([]float64, n)
	g.wy2 = make([]float64, n)
	for p, i := range g.row {
		w := float64(g.wc[p])
		y := ys[i]
		g.yv[p] = y
		g.wy[p] = w * y
		g.wy2[p] = w * y * y
	}
	g.idx = make([]int, n)
	for p := range g.idx {
		g.idx[p] = p
	}
	g.scratch = make([]int, n)
	return g
}

func (g *histGrower) growRoot() {
	if len(g.idx) == 0 {
		// All-zero weights: degenerate single leaf predicting 0.
		g.nodes = append(g.nodes, node{feature: -1})
		g.sealLeaf(0)
		return
	}
	g.grow(0, len(g.idx), 0)
}

// grow builds the subtree over idx[lo:hi] and returns its arena index.
func (g *histGrower) grow(lo, hi, depth int) int {
	rows := g.idx[lo:hi]
	wn, mean, sse, wsum, wsum2 := g.nodeStats(rows)
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{feature: -1, value: mean})

	if depth >= g.cfg.MaxDepth || wn < g.cfg.MinSamplesSplit || sse <= 1e-12 {
		g.sealLeaf(self)
		return self
	}
	feat, splitBin, thr, gain, ok := g.bestSplit(rows, wn, sse, wsum, wsum2)
	if !ok {
		g.sealLeaf(self)
		return self
	}
	mid := g.partition(lo, hi, feat, splitBin)
	g.nodes[self].feature = feat
	g.nodes[self].threshold = thr
	g.nodes[self].gain = gain
	l := g.grow(lo, mid, depth+1)
	r := g.grow(mid, hi, depth+1)
	g.nodes[self].left = l
	g.nodes[self].right = r
	return self
}

// nodeStats returns the node's weighted count, mean, SSE (two-pass,
// arithmetic-compatible with the sort-based oracle's meanSSE at unit
// weights), and the weighted Σy / Σy² the split scan subtracts from.
func (g *histGrower) nodeStats(rows []int) (wn int, mean, sse, wsum, wsum2 float64) {
	for _, p := range rows {
		wn += g.wc[p]
		wsum += g.wy[p]
		wsum2 += g.wy2[p]
	}
	mean = wsum / float64(wn)
	for _, p := range rows {
		d := g.yv[p] - mean
		sse += float64(g.wc[p]) * d * d
	}
	return wn, mean, sse, wsum, wsum2
}

// partition stably splits idx[lo:hi] around bin(feat) <= splitBin in
// place, preserving relative order on both sides, and returns the
// boundary. Both children are guaranteed non-empty by bestSplit.
func (g *histGrower) partition(lo, hi, feat, splitBin int) int {
	col := g.m.Column(feat)
	bound := uint8(splitBin)
	k, t := lo, 0
	for q := lo; q < hi; q++ {
		p := g.idx[q]
		if col[g.row[p]] <= bound {
			g.idx[k] = p
			k++
		} else {
			g.scratch[t] = p
			t++
		}
	}
	copy(g.idx[k:hi], g.scratch[:t])
	return k
}

func (g *histGrower) sealLeaf(i int) {
	g.nodes[i].leafID = g.leafCount
	g.leafIdx = append(g.leafIdx, i)
	g.leafCount++
}

// bestSplit scans a feature subsample for the bin boundary minimising
// the children's summed squared error. Per feature it accumulates the
// bin histogram in O(rows) and walks the populated bins in ascending
// order; the right child's statistics are parent minus left. The
// returned threshold is the midpoint between the adjacent populated
// bins' build-time value bounds, and splitBin is the last left-side
// bin (the partition key).
func (g *histGrower) bestSplit(rows []int, wn int, parentSSE, wsum, wsum2 float64) (feat, splitBin int, thr, bestGainOut float64, ok bool) {
	k := g.cfg.featuresPerSplit(g.m.Cols())
	feats := g.sampler.sample(k)
	minLeaf := g.cfg.MinSamplesLeaf

	bestGain := 1e-10
	for _, f := range feats {
		nb := g.m.NumBins(f)
		if nb < 2 {
			continue // constant feature: nothing to split
		}
		col := g.m.Column(f)
		counts := g.counts[:nb]
		sums := g.sums[:nb]
		sums2 := g.sums2[:nb]
		for b := range counts {
			counts[b] = 0
			sums[b] = 0
			sums2[b] = 0
		}
		for _, p := range rows {
			b := col[g.row[p]]
			counts[b] += g.wc[p]
			sums[b] += g.wy[p]
			sums2[b] += g.wy2[p]
		}

		nL := 0
		var sumL, sumL2 float64
		lastB := -1
		for b := 0; b < nb; b++ {
			if counts[b] == 0 {
				continue
			}
			if lastB >= 0 {
				nR := wn - nL
				if nL >= minLeaf && nR >= minLeaf {
					sseL := sumL2 - sumL*sumL/float64(nL)
					sumR := wsum - sumL
					sumR2 := wsum2 - sumL2
					sseR := sumR2 - sumR*sumR/float64(nR)
					gain := parentSSE - sseL - sseR
					if gain > bestGain {
						bestGain = gain
						feat = f
						splitBin = lastB
						thr = g.m.CutBetween(f, lastB, b)
						ok = true
					}
				}
			}
			nL += counts[b]
			sumL += sums[b]
			sumL2 += sums2[b]
			lastB = b
		}
	}
	return feat, splitBin, thr, bestGain, ok
}
