// Package gbdt implements gradient-boosted decision trees for binary
// classification with logistic loss (Friedman's TreeBoost with Newton
// leaf updates), one of the paper's five candidate algorithms.
//
// Each round's regression tree is grown by the histogram engine on a
// columnar matrix of the training view's rows, binned once per fit
// straight out of the sample arena — the feature geometry never
// changes across rounds, only the gradient targets do — with
// stochastic-gradient-boosting row subsampling expressed as 0/1 row
// weights.
package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/predict"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Trainer configures boosting.
type Trainer struct {
	// Rounds is the number of boosting iterations; 0 selects 100.
	Rounds int
	// LearningRate shrinks each tree's contribution; 0 selects 0.1.
	LearningRate float64
	// MaxDepth bounds each regression tree; 0 selects 4.
	MaxDepth int
	// MinSamplesLeaf is per-leaf minimum; 0 selects 5.
	MinSamplesLeaf int
	// Subsample is the stochastic-gradient-boosting row fraction per
	// round; 0 selects 1 (no subsampling).
	Subsample float64
	// Bins is the histogram engine's per-feature bin budget: 0 selects
	// matrix.DefaultBins (256), positive values are clamped to at most
	// 256, and a negative value is an error.
	Bins int
	// Seed drives subsampling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "GBDT" }

// Train implements ml.Trainer. The histogram engine bins only the
// view's rows, and only its Cols when a column sub-view is set, so
// rows outside the view (a held-out test period, dropped negatives)
// cannot move a split. Each round's tree is re-indexed to global
// features as soon as it is grown, so the Newton step, the score
// update and the final model all read full-width arena rows.
func (t *Trainer) Train(v ml.View) (ml.Classifier, error) {
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	rounds := t.Rounds
	if rounds == 0 {
		rounds = 100
	}
	lr := t.LearningRate
	if lr == 0 {
		lr = 0.1
	}
	maxDepth := t.MaxDepth
	if maxDepth == 0 {
		maxDepth = 4
	}
	minLeaf := t.MinSamplesLeaf
	if minLeaf == 0 {
		minLeaf = 5
	}
	sub := t.Subsample
	if sub == 0 {
		sub = 1
	}

	n := v.Len()
	xs := v.Xs()             // full-width arena rows, in view order
	ys := make([]float64, n) // {0,1}
	for i := range ys {
		ys[i] = float64(v.Y(i))
	}

	// F0 = log-odds of the base rate.
	pos := 0.0
	for _, y := range ys {
		pos += y
	}
	p0 := clampP(pos / float64(n))
	m := &Model{bias: math.Log(p0 / (1 - p0)), lr: lr}

	f := make([]float64, n) // current raw scores
	for i := range f {
		f[i] = m.bias
	}
	grad := make([]float64, n)
	r := rand.New(rng.NewSource(t.Seed + 7))

	// The binned matrix depends only on the feature values, so it is
	// built once and reused by every boosting round.
	bm, err := matrix.Build(v, t.Bins, 1)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	weights := make([]int, n)

	for round := 0; round < rounds; round++ {
		// Negative gradient of logistic loss: y − p.
		for i := range grad {
			grad[i] = ys[i] - sigmoid(f[i])
		}
		rowIdx := allIdx(n)
		if sub < 1 {
			k := int(sub * float64(n))
			if k < 2 {
				k = 2
			}
			rowIdx = r.Perm(n)[:k]
		}
		treeCfg := tree.Config{
			MaxDepth:       maxDepth,
			MinSamplesLeaf: minLeaf,
			Seed:           t.Seed + int64(round)*9973,
		}
		for i := range weights {
			weights[i] = 0
		}
		for _, i := range rowIdx {
			weights[i] = 1
		}
		tr := tree.GrowRegressorBinned(bm, grad, weights, treeCfg)
		if cols := v.Cols(); cols != nil {
			tr.WidenFeatures(cols)
		}

		// Newton leaf values: γ = Σ(y−p) / Σ p(1−p) over leaf members.
		nl := tr.NumLeaves()
		num := make([]float64, nl)
		den := make([]float64, nl)
		for _, i := range rowIdx {
			leaf := tr.Apply(xs[i])
			p := sigmoid(f[i])
			num[leaf] += grad[i]
			den[leaf] += p * (1 - p)
		}
		for leaf := 0; leaf < nl; leaf++ {
			gamma := 0.0
			if den[leaf] > 1e-12 {
				gamma = num[leaf] / den[leaf]
			}
			// Clip extreme Newton steps for numerical stability.
			if gamma > 4 {
				gamma = 4
			} else if gamma < -4 {
				gamma = -4
			}
			tr.SetLeafValue(leaf, gamma)
		}
		m.trees = append(m.trees, tr)
		for i := range f {
			f[i] += lr * tr.Predict(xs[i])
		}
	}
	return m, nil
}

// Model is a fitted gradient-boosted ensemble.
type Model struct {
	bias  float64
	lr    float64
	trees []*tree.Regressor

	// flat is the compiled batch inference form, built lazily on the
	// first batch call so training and Import stay cheap; models
	// reconstructed by modelio therefore rebuild it automatically.
	flatOnce sync.Once
	flat     *predict.Ensemble
}

// RawScore returns the additive log-odds score of x.
func (m *Model) RawScore(x []float64) float64 {
	s := m.bias
	for _, t := range m.trees {
		s += m.lr * t.Predict(x)
	}
	return s
}

// PredictProba implements ml.Classifier.
func (m *Model) PredictProba(x []float64) float64 { return sigmoid(m.RawScore(x)) }

// flatten compiles (once) the flattened inference arena. Compilation
// from a fitted model's own trees cannot fail; a nil return covers
// defensive failure.
func (m *Model) flatten() *predict.Ensemble {
	m.flatOnce.Do(func() {
		exported := make([]tree.Exported, len(m.trees))
		for i, t := range m.trees {
			exported[i] = t.Export()
		}
		if e, err := predict.CompileGBDT(exported, m.bias, m.lr); err == nil {
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

// Rounds returns the number of boosted trees.
func (m *Model) Rounds() int { return len(m.trees) }

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clampP(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Exported is the ensemble's serialisation form.
type Exported struct {
	Bias         float64
	LearningRate float64
	Trees        []tree.Exported
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	e := Exported{Bias: m.bias, LearningRate: m.lr, Trees: make([]tree.Exported, len(m.trees))}
	for i, t := range m.trees {
		e.Trees[i] = t.Export()
	}
	return e
}

// Import reconstructs an ensemble from its serialisation form.
func Import(e Exported) (*Model, error) {
	if e.LearningRate <= 0 {
		return nil, fmt.Errorf("gbdt: non-positive learning rate in export")
	}
	m := &Model{bias: e.Bias, lr: e.LearningRate, trees: make([]*tree.Regressor, len(e.Trees))}
	for i, te := range e.Trees {
		t, err := tree.ImportRegressor(te)
		if err != nil {
			return nil, fmt.Errorf("gbdt: tree %d: %w", i, err)
		}
		m.trees[i] = t
	}
	return m, nil
}
