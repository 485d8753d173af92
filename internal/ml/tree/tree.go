// Package tree implements CART decision trees from scratch: a gini
// classification tree (the base learner of the random forest) and a
// squared-error regression tree with externally adjustable leaf values
// (the base learner of the gradient-boosted ensemble).
//
// Two split engines share the growth logic and node layout: the exact
// sort-based splitter below (GrowClassifier/GrowRegressor), and the
// histogram splitter over a columnar binned matrix in hist.go
// (GrowClassifierBinned/GrowRegressorBinned), which the ensembles use
// by default.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ml"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds tree depth; 0 selects 12.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in a leaf; 0 selects 1.
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum samples to attempt a split;
	// 0 selects 2.
	MinSamplesSplit int
	// MaxFeatures is how many features are examined per split; 0 means
	// all, -1 means √width (the forest default).
	MaxFeatures int
	// Seed drives the per-split feature subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit == 0 {
		c.MinSamplesSplit = 2
	}
	return c
}

func (c Config) featuresPerSplit(width int) int {
	switch {
	case c.MaxFeatures > 0:
		if c.MaxFeatures > width {
			return width
		}
		return c.MaxFeatures
	case c.MaxFeatures < 0:
		k := int(math.Sqrt(float64(width)))
		if k < 1 {
			k = 1
		}
		return k
	default:
		return width
	}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indexes into the node arena
	right     int
	// value is the leaf output: positive-class probability for
	// classification trees, regression value for regression trees.
	value float64
	// leafID numbers leaves in creation order (regression trees only).
	leafID int
	// gain is the SSE reduction achieved by this node's split; it feeds
	// the mean-decrease-in-impurity feature importance.
	gain float64
}

// Classifier is a fitted gini classification tree.
type Classifier struct {
	nodes []node
	width int
}

// Trainer builds classification trees; it implements ml.Trainer.
type Trainer struct {
	Config Config
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "CART" }

// Train implements ml.Trainer.
func (t *Trainer) Train(samples []ml.Sample) (ml.Classifier, error) {
	if err := ml.ValidateSamples(samples, false); err != nil {
		return nil, err
	}
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
		ys[i] = float64(samples[i].Y)
	}
	return GrowClassifier(xs, ys, t.Config), nil
}

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

// PredictProba implements ml.Classifier: the positive fraction of the
// leaf x falls into.
func (t *Classifier) PredictProba(x []float64) float64 {
	return t.nodes[descend(t.nodes, x)].value
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Classifier) Depth() int { return depthOf(t.nodes, 0, 0) }

// NodeCount returns the number of nodes.
func (t *Classifier) NodeCount() int { return len(t.nodes) }

// Regressor is a fitted squared-error regression tree whose leaf
// values can be overwritten by an ensemble (GBDT's Newton step).
type Regressor struct {
	nodes []node
	// leafIndex maps leafID → node arena index, so SetLeafValue is
	// O(1) instead of a linear scan over the arena.
	leafIndex []int
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

// Predict returns the leaf value for x.
func (t *Regressor) Predict(x []float64) float64 {
	return t.nodes[descend(t.nodes, x)].value
}

// Apply returns the leaf index (0-based, dense) x falls into.
func (t *Regressor) Apply(x []float64) int {
	return t.nodes[descend(t.nodes, x)].leafID
}

// NumLeaves returns the number of leaves.
func (t *Regressor) NumLeaves() int { return len(t.leafIndex) }

// SetLeafValue overwrites the output of leaf id.
func (t *Regressor) SetLeafValue(id int, v float64) {
	if id < 0 || id >= len(t.leafIndex) || t.leafIndex[id] < 0 {
		panic(fmt.Sprintf("tree: no leaf %d", id))
	}
	t.nodes[t.leafIndex[id]].value = v
}

// WidenFeatures re-indexes a tree grown on the column projection cols
// of a width-wide feature space: split feature j becomes cols[j], so
// the tree predicts on full-width rows. It must run before the tree
// is shared.
func (t *Classifier) WidenFeatures(cols []int, width int) {
	widenNodes(t.nodes, cols)
	t.width = width
}

// WidenFeatures is Classifier.WidenFeatures for a regression tree,
// which infers its width from its splits.
func (t *Regressor) WidenFeatures(cols []int) { widenNodes(t.nodes, cols) }

func widenNodes(nodes []node, cols []int) {
	for i := range nodes {
		if f := nodes[i].feature; f >= 0 {
			nodes[i].feature = cols[f]
		}
	}
}

func descend(nodes []node, x []float64) int {
	i := 0
	for nodes[i].feature != -1 {
		if x[nodes[i].feature] <= nodes[i].threshold {
			i = nodes[i].left
		} else {
			i = nodes[i].right
		}
	}
	return i
}

func depthOf(nodes []node, i, d int) int {
	if nodes[i].feature == -1 {
		return d
	}
	l := depthOf(nodes, nodes[i].left, d+1)
	r := depthOf(nodes, nodes[i].right, d+1)
	if l > r {
		return l
	}
	return r
}

// orderedIndex returns [0, 1, …, n-1].
func orderedIndex(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// featureSampler draws k-feature subsets with a reusable partial
// Fisher–Yates buffer, replacing the per-split rng.Perm allocation.
// The buffer persists across draws (the partial shuffle keeps it a
// permutation of 0..width-1), so sampling allocates nothing.
type featureSampler struct {
	rng *rand.Rand
	buf []int
}

func newFeatureSampler(rng *rand.Rand, width int) *featureSampler {
	return &featureSampler{rng: rng, buf: orderedIndex(width)}
}

// sample returns k features without replacement. When k covers every
// feature, the current buffer order is returned without consuming any
// randomness — both split engines share this convention, which keeps
// their rng streams aligned node for node.
func (s *featureSampler) sample(k int) []int {
	n := len(s.buf)
	if k >= n {
		return s.buf
	}
	for j := 0; j < k; j++ {
		r := j + s.rng.Intn(n-j)
		s.buf[j], s.buf[r] = s.buf[r], s.buf[j]
	}
	return s.buf[:k]
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
