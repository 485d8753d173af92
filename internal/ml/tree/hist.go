package tree

// Histogram-based split finding over a columnar binned matrix
// (internal/ml/matrix). Instead of re-sorting the node's rows for
// every candidate feature — O(n log n) per feature per node — the
// engine accumulates per-bin (weighted count, Σwy, Σwy²) in one O(n)
// pass per feature and scans only the bins that pass populated for the
// best gain; the right-hand statistics come from parent-minus-left
// subtraction, so each candidate costs O(1).
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
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/ml/matrix"
	"repro/internal/rng"
)

// GrowClassifierBinned fits a gini tree on the binned matrix: ys must
// be 0/1, indexed by matrix row. weights are per-row bootstrap
// multiplicities (nil means one each); rows with weight 0 are left
// out of growth entirely. weights is read only before growth starts.
func GrowClassifierBinned(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *Classifier {
	g := newHistGrower(m, ys, weights, cfg)
	defer g.release()
	g.growRoot()
	return &Classifier{nodes: slices.Clone(g.nodes), width: m.Cols()}
}

// GrowRegressorBinned fits a squared-error regression tree on the
// binned matrix. The same matrix can back every boosting round: only
// ys (the per-round gradients) and weights change.
func GrowRegressorBinned(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *Regressor {
	g := newHistGrower(m, ys, weights, cfg)
	defer g.release()
	g.growRoot()
	return &Regressor{nodes: slices.Clone(g.nodes), leafIndex: slices.Clone(g.leafIdx)}
}

// histGrower holds the histogram split engine's growth state. Growers
// are pooled (growerPool): every buffer is reused from tree to tree
// and grows to the largest fit seen, so after warm-up a tree allocates
// only the exact-size copies of its node arena (and leaf index) that
// the returned model keeps.
type histGrower struct {
	m   *matrix.BinnedMatrix
	cfg Config
	// act is the compact per-active-row state, one slot per
	// positive-weight row in matrix order, packed so that histogram
	// accumulation reads one slot per row.
	act     []activeRow
	sampler featureSampler

	nodes   []node
	leafIdx []int

	// idx is the single position arena (indexes into act) partitioned
	// in place (hi spills through scratch).
	idx     []int32
	scratch []int32
	// hist is the per-feature bin histogram, indexed by the uint8 bin
	// code. Between features every slot is zero: bestSplit zeroes each
	// bin it consumes, and touches no other.
	hist [matrix.MaxBins]binStats
}

// activeRow is one positive-weight row: its matrix row, its bootstrap
// weight w, its target y, and the cached w·y and w·y² that histogram
// accumulation adds.
type activeRow struct {
	row     int32
	w       int32
	y       float64
	wy, wy2 float64
}

// binStats is one histogram bin: weighted count, Σwy and Σwy².
type binStats struct {
	n    int
	sum  float64
	sum2 float64
}

// growerPool recycles growers, each with its own feature-sampling
// generator: (*Rand).Seed resets it to exactly the stream a fresh
// rand.New(rng.NewSource(seed)) would produce. Concurrent tree fits
// each take their own grower.
var growerPool = sync.Pool{New: func() any {
	return &histGrower{sampler: featureSampler{rng: rand.New(rng.NewSource(0))}}
}}

// newHistGrower takes a grower from growerPool and sets it up for
// growth on m; the caller releases it once the tree is copied out.
func newHistGrower(m *matrix.BinnedMatrix, ys []float64, weights []int, cfg Config) *histGrower {
	if len(ys) != m.Rows() {
		panic(fmt.Sprintf("tree: %d targets for %d matrix rows", len(ys), m.Rows()))
	}
	if weights != nil && len(weights) != m.Rows() {
		panic(fmt.Sprintf("tree: %d weights for %d matrix rows", len(weights), m.Rows()))
	}
	g := growerPool.Get().(*histGrower)
	g.m = m
	g.cfg = cfg.withDefaults()
	g.sampler.rng.Seed(g.cfg.Seed + 17)
	g.sampler.reset(m.Cols())
	g.nodes = g.nodes[:0]
	g.leafIdx = g.leafIdx[:0]
	g.act = slices.Grow(g.act[:0], m.Rows())
	for i, y := range ys {
		w := 1
		if weights != nil {
			w = weights[i]
		}
		if w > 0 {
			fw := float64(w)
			g.act = append(g.act, activeRow{row: int32(i), w: int32(w), y: y, wy: fw * y, wy2: fw * y * y})
		}
	}
	n := len(g.act)
	g.idx = resize(g.idx, n)
	for p := range g.idx {
		g.idx[p] = int32(p)
	}
	g.scratch = resize(g.scratch, n)
	return g
}

// release returns the grower to growerPool, dropping its reference to
// the matrix so a pooled grower does not keep it alive.
func (g *histGrower) release() {
	g.m = nil
	growerPool.Put(g)
}

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
func (g *histGrower) nodeStats(rows []int32) (wn int, mean, sse, wsum, wsum2 float64) {
	for _, p := range rows {
		a := &g.act[p]
		wn += int(a.w)
		wsum += a.wy
		wsum2 += a.wy2
	}
	mean = wsum / float64(wn)
	for _, p := range rows {
		a := &g.act[p]
		d := a.y - mean
		sse += float64(a.w) * d * d
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
		if col[g.act[p].row] <= bound {
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
	g.nodes[i].leafID = len(g.leafIdx)
	g.leafIdx = append(g.leafIdx, i)
}

// bestSplit scans a feature subsample for the bin boundary minimising
// the children's summed squared error. Per feature it accumulates the
// bin histogram in O(rows), marking each touched bin in a 256-bit
// bitmap, then walks only the touched bins in ascending order, zeroing
// each as it is consumed: O(rows + touched bins) per feature, however
// many bins the feature has. Every active row has weight ≥ 1, so a
// touched bin is exactly one with a positive count, and the candidates,
// their order and their sums are those of a scan over all bins that
// skips the empty ones. The right child's statistics are parent minus
// left. The returned threshold is the midpoint between the adjacent
// populated bins' build-time value bounds, and splitBin is the last
// left-side bin (the partition key).
func (g *histGrower) bestSplit(rows []int32, wn int, parentSSE, wsum, wsum2 float64) (feat, splitBin int, thr, bestGainOut float64, ok bool) {
	k := g.cfg.featuresPerSplit(g.m.Cols())
	feats := g.sampler.sample(k)
	minLeaf := g.cfg.MinSamplesLeaf
	hist := &g.hist

	bestGain := 1e-10
	for _, f := range feats {
		if g.m.NumBins(f) < 2 {
			continue // constant feature: nothing to split
		}
		col := g.m.Column(f)
		var touched [matrix.MaxBins / 64]uint64
		for _, p := range rows {
			a := &g.act[p]
			b := col[a.row]
			h := &hist[b]
			h.n += int(a.w)
			h.sum += a.wy
			h.sum2 += a.wy2
			touched[b>>6] |= 1 << (b & 63)
		}

		nL := 0
		var sumL, sumL2 float64
		lastB := -1
		for w, word := range touched {
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				h := hist[b]
				hist[b] = binStats{}
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
				nL += h.n
				sumL += h.sum
				sumL2 += h.sum2
				lastB = b
			}
		}
	}
	return feat, splitBin, thr, bestGain, ok
}
