package tree

// The exact sort-based split engine, kept as the oracle of the
// histogram engine's equivalence tests in hist_test.go: with one bin
// per distinct value and integer-valued targets, GrowClassifierBinned
// and GrowRegressorBinned grow the trees these grow, bit for bit.

import (
	"math/rand"
	"sort"
)

// GrowClassifier fits a gini tree on raw matrices: ys must be 0/1.
func GrowClassifier(xs [][]float64, ys []float64, cfg Config) *Classifier {
	cfg = cfg.withDefaults()
	g := &grower{
		xs:      xs,
		ys:      ys,
		cfg:     cfg,
		sampler: newFeatureSampler(rand.New(rand.NewSource(cfg.Seed+17)), len(xs[0])),
		idx:     orderedIndex(len(xs)),
		scratch: make([]int, len(xs)),
		sorted:  make([]int, len(xs)),
		// Gini impurity of a 0/1 target equals 2p(1-p), which is
		// monotone in the variance p(1-p); minimising weighted child
		// variance therefore minimises weighted gini, so one split
		// criterion serves both tree kinds.
	}
	g.grow(0, len(xs), 0) // the root is always arena index 0
	return &Classifier{nodes: g.nodes, width: len(xs[0])}
}

// GrowRegressor fits a regression tree to targets ys.
func GrowRegressor(xs [][]float64, ys []float64, cfg Config) *Regressor {
	cfg = cfg.withDefaults()
	g := &grower{
		xs:         xs,
		ys:         ys,
		cfg:        cfg,
		sampler:    newFeatureSampler(rand.New(rand.NewSource(cfg.Seed+17)), len(xs[0])),
		idx:        orderedIndex(len(xs)),
		scratch:    make([]int, len(xs)),
		sorted:     make([]int, len(xs)),
		regression: true,
	}
	g.grow(0, len(xs), 0)
	return &Regressor{nodes: g.nodes, leafIndex: g.leafIdx}
}

// grower holds the exact (sort-based) split engine's growth state.
type grower struct {
	xs         [][]float64
	ys         []float64
	cfg        Config
	sampler    *featureSampler
	regression bool
	nodes      []node
	leafCount  int
	leafIdx    []int
	// idx is the single index arena: grow(lo, hi) owns idx[lo:hi] and
	// partitions it in place, spilling the right side through scratch,
	// instead of append-growing two fresh slices per node.
	idx     []int
	scratch []int
	sorted  []int
}

// grow builds the subtree over idx[lo:hi] and returns its arena index.
func (g *grower) grow(lo, hi, depth int) int {
	idx := g.idx[lo:hi]
	mean, sse := meanSSE(g.ys, idx)
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{feature: -1, value: mean})

	if depth >= g.cfg.MaxDepth || len(idx) < g.cfg.MinSamplesSplit || sse <= 1e-12 {
		g.sealLeaf(self)
		return self
	}
	feat, thr, gain, ok := g.bestSplit(idx, sse)
	if !ok {
		g.sealLeaf(self)
		return self
	}
	mid := g.partition(lo, hi, feat, thr)
	if mid-lo < g.cfg.MinSamplesLeaf || hi-mid < g.cfg.MinSamplesLeaf {
		g.sealLeaf(self)
		return self
	}
	g.nodes[self].feature = feat
	g.nodes[self].threshold = thr
	g.nodes[self].gain = gain
	l := g.grow(lo, mid, depth+1)
	r := g.grow(mid, hi, depth+1)
	g.nodes[self].left = l
	g.nodes[self].right = r
	return self
}

// partition stably splits idx[lo:hi] around x[feat] <= thr in place:
// kept rows compact to the front, spilled rows pass through scratch.
// It returns the boundary index. Relative order is preserved on both
// sides, matching what two append-grown slices would contain.
func (g *grower) partition(lo, hi, feat int, thr float64) int {
	k, t := lo, 0
	for p := lo; p < hi; p++ {
		i := g.idx[p]
		if g.xs[i][feat] <= thr {
			g.idx[k] = i
			k++
		} else {
			g.scratch[t] = i
			t++
		}
	}
	copy(g.idx[k:hi], g.scratch[:t])
	return k
}

func (g *grower) sealLeaf(i int) {
	g.nodes[i].leafID = g.leafCount
	g.leafIdx = append(g.leafIdx, i)
	g.leafCount++
}

// bestSplit scans a feature subsample for the split minimising the
// children's summed squared error. parentSSE gates on actual gain.
func (g *grower) bestSplit(idx []int, parentSSE float64) (feat int, thr, bestGainOut float64, ok bool) {
	width := len(g.xs[0])
	k := g.cfg.featuresPerSplit(width)
	feats := g.sampler.sample(k)

	bestGain := 1e-10
	sorted := g.sorted[:len(idx)]
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return g.xs[sorted[a]][f] < g.xs[sorted[b]][f] })

		var sumL, sumL2 float64
		var sumR, sumR2 float64
		for _, i := range sorted {
			sumR += g.ys[i]
			sumR2 += g.ys[i] * g.ys[i]
		}
		nL, nR := 0, len(sorted)
		for pos := 0; pos < len(sorted)-1; pos++ {
			y := g.ys[sorted[pos]]
			sumL += y
			sumL2 += y * y
			sumR -= y
			sumR2 -= y * y
			nL++
			nR--
			xCur := g.xs[sorted[pos]][f]
			xNext := g.xs[sorted[pos+1]][f]
			if xCur == xNext {
				continue
			}
			if nL < g.cfg.MinSamplesLeaf || nR < g.cfg.MinSamplesLeaf {
				continue
			}
			sseL := sumL2 - sumL*sumL/float64(nL)
			sseR := sumR2 - sumR*sumR/float64(nR)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (xCur + xNext) / 2
				ok = true
			}
		}
	}
	return feat, thr, bestGain, ok
}

func meanSSE(ys []float64, idx []int) (mean, sse float64) {
	for _, i := range idx {
		mean += ys[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := ys[i] - mean
		sse += d * d
	}
	return mean, sse
}

// newFeatureSampler returns a sampler over width features drawing from
// rng.
func newFeatureSampler(rng *rand.Rand, width int) *featureSampler {
	s := &featureSampler{rng: rng}
	s.reset(width)
	return s
}

// orderedIndex returns [0, 1, …, n-1].
func orderedIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
