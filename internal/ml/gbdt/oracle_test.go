package gbdt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/mltest"
	"repro/internal/ml/tree"
)

// fitSlice is the slice form of Train that the view path replaced, kept
// as the oracle of the view tests: it boosts on materialised rows
// (masked copies for a column sub-view), binned as a fresh full-width
// set, with every tree over the rows' own feature indexes. Train(v)
// must match fitSlice(mltest.Materialize(v)) bit for bit, up to the
// re-indexing of a column sub-view's splits.
func (t *Trainer) fitSlice(samples []ml.Sample) (*Model, error) {
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

	n := len(samples)
	xs := make([][]float64, n)
	ys := make([]float64, n) // {0,1}
	for i := range samples {
		xs[i] = samples[i].X
		ys[i] = float64(samples[i].Y)
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
	r := rand.New(rand.NewSource(t.Seed + 7))

	// Histogram engine: the binned matrix depends only on the feature
	// matrix, so it is built once and reused by every boosting round.
	bm, err := matrix.Build(mltest.View(samples), t.Bins, 1)
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
