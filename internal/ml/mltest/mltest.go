// Package mltest provides the data fixtures of the learners'
// equivalence and leakage tests, and the conversions between hand-built
// []ml.Sample fixtures, which the learners' slice oracles take, and
// the ml.View every trainer takes. Only _test.go files import it.
package mltest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/sampling"
)

// Continuous draws n labelled samples over five features. Four are
// continuous, with far more distinct values than the 256-bin budget —
// the regime in which binning quantises and which rows are binned
// therefore matters; the fifth is a small integer alphabet. Day runs
// i/7, so time-ordered splits and CV folds are well defined.
func Continuous(n int, seed int64) []ml.Sample {
	r := rand.New(rng.NewSource(seed))
	out := make([]ml.Sample, n)
	for i := range out {
		a := r.NormFloat64()
		b := r.Float64() * 100
		c := float64(r.Intn(5000))
		d := r.ExpFloat64()
		e := float64(r.Intn(4))
		y := 0
		if a+b/50 > 1.5 || (e > 1 && d > 1.2) {
			y = 1
		}
		if r.Float64() < 0.08 {
			y = 1 - y
		}
		out[i] = ml.Sample{X: []float64{a, b, c, d, e}, Y: y, Day: i / 7, SN: fmt.Sprintf("s%d", i%37)}
	}
	return out
}

// PoisonOutside returns a copy of set in which every row outside keep
// holds, in every column, a value above any that keep's rows hold,
// distinct per row. Binning the whole poisoned set would cut its
// columns differently from binning keep's rows, so a learner fitted on
// keep must give bit-identical results on set and on the copy.
func PoisonOutside(set *ml.SampleSet, keep ml.View) (*ml.SampleSet, error) {
	w, n := set.Width(), set.Len()
	maxKept := make([]float64, w)
	for c := range maxKept {
		maxKept[c] = math.Inf(-1)
	}
	kept := make([]bool, n)
	for i := 0; i < keep.Len(); i++ {
		kept[keep.RowIndex(i)] = true
		for c, v := range keep.Row(i) {
			maxKept[c] = max(maxKept[c], v)
		}
	}
	x := append([]float64(nil), set.Arena()...)
	y := make([]int8, n)
	day := make([]int32, n)
	sn := make([]string, n)
	k := 0
	for r := 0; r < n; r++ {
		y[r], day[r], sn[r] = int8(set.Y(r)), int32(set.Day(r)), set.SN(r)
		if kept[r] {
			continue
		}
		k++
		for c := 0; c < w; c++ {
			x[r*w+c] = maxKept[c] + 1 + float64(k)
		}
	}
	return ml.NewSampleSet(w, x, y, day, sn)
}

// NamedView is one training view of a test set.
type NamedView struct {
	Name string
	View ml.View
}

// Views returns the views the equivalence and leakage suites fit on:
// the whole set, an under-sampled row subset, a shuffled half of the
// rows, and column sub-views (out of order, so re-indexing shows) of
// the whole set and of the subset.
func Views(set *ml.SampleSet, seed int64) ([]NamedView, error) {
	under, err := sampling.UnderSampleView(set.All(), 0.6, seed)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rng.NewSource(seed)).Perm(set.Len())
	half := make([]int32, set.Len()/2)
	for i := range half {
		half[i] = int32(perm[i])
	}
	cols := []int{3, 0, 2}
	return []NamedView{
		{"all", set.All()},
		{"undersampled", under},
		{"shuffled-half", set.All().WithRows(half)},
		{"cols", set.All().WithCols(cols)},
		{"undersampled-cols", under.WithCols(cols)},
	}, nil
}

// Mask returns x restricted to cols (nil = all), the feature vector a
// model fitted on a masked materialisation scores.
func Mask(x []float64, cols []int) []float64 {
	if cols == nil {
		return x
	}
	out := make([]float64, len(cols))
	for j, c := range cols {
		out[j] = x[c]
	}
	return out
}

// View returns the all-rows view of a fresh set holding samples, row
// for row. It panics on samples ml.FromSamples rejects: fixtures are
// valid by construction, and tests of invalid input build their sets
// themselves.
func View(samples []ml.Sample) ml.View {
	set, err := ml.FromSamples(samples)
	if err != nil {
		panic(err)
	}
	return set.All()
}

// Rows returns View over unlabelled feature rows (every label 0), for
// tests that bin a matrix without training on it.
func Rows(xs [][]float64) ml.View {
	samples := make([]ml.Sample, len(xs))
	for i, x := range xs {
		samples[i] = ml.Sample{X: x}
	}
	return View(samples)
}

// Materialize returns the view's rows as samples in view order: the
// arena rows themselves (header-only, no feature copy) without a column
// subset, masked copies with one. It is the slice a learner's oracle
// fits on to pin what the learner fits on the view.
func Materialize(v ml.View) []ml.Sample {
	out := make([]ml.Sample, v.Len())
	for i := range out {
		out[i] = ml.Sample{X: Mask(v.Row(i), v.Cols()), Y: v.Y(i), SN: v.SN(i), Day: v.Day(i)}
	}
	return out
}
