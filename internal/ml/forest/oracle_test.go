package forest

import (
	"fmt"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/mltest"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
)

// fitSlice is the slice form of Train that the view path replaced, kept
// as the oracle of the view tests: it fits on materialised rows (masked
// copies for a column sub-view), binned as a fresh full-width set, and
// grows trees over the rows' own feature indexes. Train(v) must match
// fitSlice(mltest.Materialize(v)) bit for bit, up to the re-indexing
// of a column sub-view's splits.
func (t *Trainer) fitSlice(samples []ml.Sample) (*Model, error) {
	nTrees := t.Trees
	if nTrees == 0 {
		nTrees = 100
	}
	maxFeatures := t.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = -1 // tree.Config: √width
	}
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
		ys[i] = float64(samples[i].Y)
	}

	// Pre-draw one bootstrap seed per tree from a master source so the
	// result does not depend on goroutine scheduling.
	master := rand.New(rand.NewSource(t.Seed + 101))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	cfg := func(ti int) tree.Config {
		return tree.Config{
			MaxDepth:       t.MaxDepth,
			MinSamplesLeaf: t.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Seed:           seeds[ti],
		}
	}
	m := &Model{trees: make([]*tree.Classifier, nTrees)}

	// Histogram engine: bin once, share the matrix read-only across
	// all trees, and express each bootstrap as integer row weights.
	bm, err := matrix.Build(mltest.View(samples), t.Bins, t.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	if err := parallel.Do(nTrees, t.Parallelism, func(ti int) error {
		r := rand.New(rand.NewSource(seeds[ti]))
		w := make([]int, len(xs))
		for i := 0; i < len(xs); i++ {
			w[r.Intn(len(xs))]++
		}
		m.trees[ti] = tree.GrowClassifierBinned(bm, ys, w, cfg(ti))
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}
