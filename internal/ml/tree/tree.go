// Package tree implements CART decision trees from scratch: a gini
// classification tree (the base learner of the random forest) and a
// squared-error regression tree with externally adjustable leaf values
// (the base learner of the gradient-boosted ensemble).
//
// Trees are grown by the histogram split engine over a columnar
// binned matrix (hist.go: GrowClassifierBinned/GrowRegressorBinned),
// the only split engine; an exact sort-based grower is kept in the
// tests as the oracle it is pinned against.
package tree

import (
	"fmt"
	"math"
	"math/rand"
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

// PredictProba implements ml.Classifier: the positive fraction of the
// leaf x falls into.
func (t *Classifier) PredictProba(x []float64) float64 {
	return t.nodes[descend(t.nodes, x)].value
}

// Regressor is a fitted squared-error regression tree whose leaf
// values can be overwritten by an ensemble (GBDT's Newton step).
type Regressor struct {
	nodes []node
	// leafIndex maps leafID → node arena index, so SetLeafValue is
	// O(1) instead of a linear scan over the arena.
	leafIndex []int
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

// featureSampler draws k-feature subsets with a reusable partial
// Fisher–Yates buffer, replacing the per-split rng.Perm allocation.
// The buffer persists across draws (the partial shuffle keeps it a
// permutation of 0..width-1), so sampling allocates nothing.
type featureSampler struct {
	rng *rand.Rand
	buf []int
}

// reset restores the identity order over width features, so a reused
// sampler draws what a fresh one would from the same generator state.
func (s *featureSampler) reset(width int) {
	s.buf = resize(s.buf, width)
	for i := range s.buf {
		s.buf[i] = i
	}
}

// sample returns k features without replacement. When k covers every
// feature, the current buffer order is returned without consuming any
// randomness — the sort-based test oracle shares this convention,
// which keeps its rng stream aligned with the histogram engine's node
// for node.
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
