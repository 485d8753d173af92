// Package forest implements a random forest of CART gini trees with
// bootstrap bagging and per-split feature subsampling — the algorithm
// the paper finds best for MFPA (98.18% TPR / 0.56% FPR with SFWB
// features; "the tree-based model is superior to other models for
// discontinuous data"). Trees are grown in parallel across goroutines.
//
// Training runs on the histogram engine: the training view's rows are
// quantile-binned once per fit, straight out of the sample arena, into
// a columnar matrix shared by every tree; each bootstrap is expressed
// as per-row integer weights on that matrix (no row copies), and every
// tree finds splits by histogram accumulation instead of per-node
// sorting.
package forest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/predict"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Trainer configures random forest training.
type Trainer struct {
	// Trees is the ensemble size; 0 selects 100.
	Trees int
	// MaxDepth bounds each tree; 0 selects 12.
	MaxDepth int
	// MinSamplesLeaf is per-leaf minimum; 0 selects 1.
	MinSamplesLeaf int
	// MaxFeatures per split; 0 selects √width.
	MaxFeatures int
	// Bins is the histogram engine's per-feature bin budget: 0 selects
	// matrix.DefaultBins (256), positive values are clamped to at most
	// 256, and a negative value is an error.
	Bins int
	// Seed drives bootstrap sampling and per-tree feature subsampling.
	Seed int64
	// Parallelism bounds the training goroutines; 0 selects GOMAXPROCS.
	Parallelism int
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "RF" }

// Train implements ml.Trainer. The histogram engine bins only the
// view's rows, and only its Cols when a column sub-view is set, so
// rows outside the view (a held-out test period, dropped negatives)
// cannot move a split. A column sub-view's trees are re-indexed to
// global features, so the model predicts on full-width arena rows.
func (t *Trainer) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, false); err != nil {
		return nil, err
	}
	nTrees := t.Trees
	if nTrees == 0 {
		nTrees = 100
	}
	maxFeatures := t.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = -1 // tree.Config: √width
	}
	n := v.Len()
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = float64(v.Y(i))
	}

	// Pre-draw one bootstrap seed per tree from a master source so the
	// result does not depend on goroutine scheduling.
	master := rand.New(rng.NewSource(t.Seed + 101))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	// Bin once, share the matrix read-only across all trees, and
	// express each bootstrap as integer row weights.
	bm, err := matrix.Build(v, t.Bins, t.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	m := &Model{trees: make([]*tree.Classifier, nTrees)}
	if err := parallel.Do(nTrees, t.Parallelism, func(ti int) error {
		b := bootPool.Get().(*bootstrap)
		w := b.draw(seeds[ti], n)
		tr := tree.GrowClassifierBinned(bm, ys, w, tree.Config{
			MaxDepth:       t.MaxDepth,
			MinSamplesLeaf: t.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Seed:           seeds[ti],
		})
		bootPool.Put(b)
		if cols := v.Cols(); cols != nil {
			tr.WidenFeatures(cols, v.Set().Width())
		}
		m.trees[ti] = tr
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// bootstrap is one tree's bagging state: a generator and the per-row
// weight vector it draws into. Both are recycled through bootPool, so
// a tree allocates neither; the weights grow to the largest fit seen.
type bootstrap struct {
	r *rand.Rand
	w []int
}

// bootPool recycles bootstraps across trees and fits; concurrent trees
// each take their own.
var bootPool = sync.Pool{New: func() any { return &bootstrap{r: rand.New(rng.NewSource(0))} }}

// draw returns the bootstrap multiplicities of n rows under seed: n
// draws with replacement, counted per row. (*Rand).Seed resets the
// pooled generator to exactly the stream a fresh
// rand.New(rng.NewSource(seed)) would produce. The slice is valid until
// the next draw.
func (b *bootstrap) draw(seed int64, n int) []int {
	b.r.Seed(seed)
	if cap(b.w) < n {
		b.w = make([]int, n)
	}
	w := b.w[:n]
	clear(w)
	for i := 0; i < n; i++ {
		w[b.r.Intn(n)]++
	}
	return w
}

// Model is a fitted random forest.
type Model struct {
	trees []*tree.Classifier

	// flat is the compiled batch inference form, built lazily on the
	// first batch call so training and Import stay cheap; models
	// reconstructed by modelio therefore rebuild it automatically.
	flatOnce sync.Once
	flat     *predict.Ensemble
}

// PredictProba implements ml.Classifier: the mean of the trees' leaf
// probabilities.
func (m *Model) PredictProba(x []float64) float64 {
	var s float64
	for _, t := range m.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(m.trees))
}

// flatten compiles (once) the flattened inference arena. Compilation
// from a fitted model's own trees cannot fail; a nil return covers the
// degenerate empty model.
func (m *Model) flatten() *predict.Ensemble {
	m.flatOnce.Do(func() {
		exported := make([]tree.Exported, len(m.trees))
		for i, t := range m.trees {
			exported[i] = t.Export()
		}
		if e, err := predict.CompileForest(exported); err == nil {
			m.flat = e
		}
	})
	return m.flat
}

// PredictProbaBatch implements ml.BatchClassifier on the flattened
// arena: scores are bit-exact against PredictProba at any worker count
// (0 = GOMAXPROCS, 1 = serial).
func (m *Model) PredictProbaBatch(xs [][]float64, out []float64, workers int) {
	if e := m.flatten(); e != nil {
		e.PredictProbaBatch(xs, out, workers)
		return
	}
	_ = parallel.Do(len(xs), workers, func(i int) error {
		out[i] = m.PredictProba(xs[i])
		return nil
	})
}

// NewRun implements ml.BatchClassifier with a resumable run of the
// flattened arena's differential kernel, for scoring one drive's
// consecutive days; its scores are bit-identical to PredictProba for
// any row order.
func (m *Model) NewRun() ml.Run {
	if e := m.flatten(); e != nil {
		return e.NewRun()
	}
	return ml.PerRow{Classifier: m}
}

// Size returns the ensemble size.
func (m *Model) Size() int { return len(m.trees) }

// FeatureImportance returns the normalised mean-decrease-in-impurity
// importance of each feature across the ensemble. The vector sums to 1
// (or is all-zero for stump-only forests).
func (m *Model) FeatureImportance() []float64 {
	if len(m.trees) == 0 {
		return nil
	}
	var imp []float64
	for _, t := range m.trees {
		ti := t.FeatureImportance()
		if imp == nil {
			imp = make([]float64, len(ti))
		}
		for i, v := range ti {
			imp[i] += v
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Exported is the forest's serialisation form.
type Exported struct {
	Trees []tree.Exported
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	out := Exported{Trees: make([]tree.Exported, len(m.trees))}
	for i, t := range m.trees {
		out.Trees[i] = t.Export()
	}
	return out
}

// Import reconstructs a forest from its serialisation form.
func Import(e Exported) (*Model, error) {
	if len(e.Trees) == 0 {
		return nil, fmt.Errorf("forest: empty export")
	}
	m := &Model{trees: make([]*tree.Classifier, len(e.Trees))}
	for i, te := range e.Trees {
		t, err := tree.ImportClassifier(te)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		m.trees[i] = t
	}
	return m, nil
}

// Explain returns the per-feature contributions for x averaged across
// the ensemble, plus the mean bias. bias + Σ contributions equals
// PredictProba(x) exactly, so the decomposition is faithful.
func (m *Model) Explain(x []float64) (contributions []float64, bias float64) {
	if len(m.trees) == 0 {
		return nil, 0
	}
	var sum []float64
	for _, t := range m.trees {
		c, b := t.Explain(x)
		if sum == nil {
			sum = make([]float64, len(c))
		}
		for i, v := range c {
			sum[i] += v
		}
		bias += b
	}
	n := float64(len(m.trees))
	for i := range sum {
		sum[i] /= n
	}
	return sum, bias / n
}
