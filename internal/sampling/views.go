// Package sampling implements the paper's time-series-based training
// optimisations (Section III-C(3), Fig. 8): RandomUnderSampler for
// class imbalance, timepoint-based train/test segmentation, and
// time-series cross-validation in which no fold ever trains on data
// newer than its validation data.
//
// Every function selects *rows* of a shared ml.SampleSet instead of
// copying sample structs, so a grid-search candidate, an SFS step, or
// a CV fold costs one int32 slice rather than a sample-set copy.
// oracle_test.go keeps a []ml.Sample implementation of each function,
// and views_test.go pins every view function to it row for row, for
// the same seeds, across datasets.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ml"
	"repro/internal/rng"
)

// SortedByDay returns the view's arena rows stably ordered by day:
// rows on one day keep their view order. Observation days cover a
// window not much wider than the row count, so a stable counting sort
// over [minDay, maxDay] replaces the comparison sort; a span more than
// spanPerRow times the row count falls back to sort.SliceStable. Both
// give the same order.
func SortedByDay(v ml.View) []int32 {
	n := v.Len()
	// Non-nil even when empty: a nil row slice would mean "all rows".
	out := make([]int32, n)
	if n == 0 {
		return out
	}
	lo, hi := v.Day(0), v.Day(0)
	for i := 1; i < n; i++ {
		d := v.Day(i)
		lo = min(lo, d)
		hi = max(hi, d)
	}
	span := hi - lo + 1
	if span > spanPerRow*n {
		for i := range out {
			out[i] = v.RowIndex(i)
		}
		set := v.Set()
		sort.SliceStable(out, func(a, b int) bool { return set.Day(int(out[a])) < set.Day(int(out[b])) })
		return out
	}
	// next[d-lo] is the output slot of day d's next row.
	next := make([]int, span)
	for i := 0; i < n; i++ {
		next[v.Day(i)-lo]++
	}
	sum := 0
	for d, c := range next {
		next[d] = sum
		sum += c
	}
	for i := 0; i < n; i++ {
		d := v.Day(i) - lo
		out[next[d]] = v.RowIndex(i)
		next[d]++
	}
	return out
}

// spanPerRow bounds the counting sort's day table relative to the row
// count; wider spans take the comparison sort.
const spanPerRow = 16

// SplitFractionView segments chronologically by row count: the
// earliest frac of rows (after stable day ordering) train, the rest
// test. No feature data is copied.
func SplitFractionView(v ml.View, frac float64) (train, test ml.View) {
	idx := SortedByDay(v)
	cut := int(float64(len(idx)) * frac)
	return v.WithRows(idx[:cut:cut]), v.WithRows(idx[cut:])
}

// SplitAtDayView implements timepoint-based sample segmentation
// (Fig. 8(a)(2)) on row indexes: rows observed on or before
// learnEndDay form the training set (the learning time window LW),
// strictly later rows form the test set, input order preserved on both
// sides. The training set holds no future data relative to any test
// row.
func SplitAtDayView(v ml.View, learnEndDay int) (train, test ml.View) {
	n := v.Len()
	// Non-nil even when empty: a nil row slice would mean "all rows".
	tr := make([]int32, 0, n)
	te := make([]int32, 0)
	for i := 0; i < n; i++ {
		if v.Day(i) <= learnEndDay {
			tr = append(tr, v.RowIndex(i))
		} else {
			te = append(te, v.RowIndex(i))
		}
	}
	return v.WithRows(tr), v.WithRows(te)
}

// RandomSplitView is the conventional (non-time-aware) m:n split the
// paper argues against, kept for the segmentation ablation: a seeded
// shuffle of the rows, the last testFrac of them testing.
func RandomSplitView(v ml.View, testFrac float64, seed int64) (train, test ml.View) {
	idx := v.Indices()
	r := rand.New(rng.NewSource(seed))
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := len(idx) - int(float64(len(idx))*testFrac)
	return v.WithRows(idx[:cut:cut]), v.WithRows(idx[cut:])
}

// UnderSampleView balances classes by keeping every positive row and a
// seeded uniform random subset of negatives sized ratio× the positive
// count (the paper uses 3:1 or 5:1). When there are fewer negatives
// than the target, all are kept. The survivors keep their input order,
// so downstream time-based splits stay valid.
func UnderSampleView(v ml.View, ratio float64, seed int64) (ml.View, error) {
	if ratio <= 0 {
		return ml.View{}, fmt.Errorf("sampling: ratio %g must be > 0", ratio)
	}
	neg, pos := v.ClassCounts()
	target := int(float64(pos) * ratio)
	n := v.Len()
	if pos == 0 || neg <= target {
		return v.WithRows(v.Indices()), nil
	}
	// Choose the surviving negative positions without replacement.
	negPositions := make([]int, 0, neg)
	for i := 0; i < n; i++ {
		if v.Y(i) == 0 {
			negPositions = append(negPositions, i)
		}
	}
	r := rand.New(rng.NewSource(seed))
	r.Shuffle(len(negPositions), func(i, j int) {
		negPositions[i], negPositions[j] = negPositions[j], negPositions[i]
	})
	keep := make([]bool, n)
	for _, p := range negPositions[:target] {
		keep[p] = true
	}
	out := make([]int32, 0, pos+target)
	for i := 0; i < n; i++ {
		if v.Y(i) == 1 || keep[i] {
			out = append(out, v.RowIndex(i))
		}
	}
	return v.WithRows(out), nil
}

// FoldView is one cross-validation iteration over views.
type FoldView struct {
	Train ml.View
	Val   ml.View
}

// TimeSeriesCVView implements the paper's time-series
// cross-validation (Fig. 8(b)(2)) on row indexes: the day-ordered rows
// divide into 2k contiguous subsets and iteration i trains on subsets
// [i, i+k) and validates on subset i+k, so training data always
// precedes validation data. It returns k folds. Because each training
// window is contiguous in the sorted order, every fold is a pair of
// subslices of one shared index array — k folds cost one sort and one
// index copy in total.
func TimeSeriesCVView(v ml.View, k int) ([]FoldView, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 1", k)
	}
	if v.Len() < 2*k {
		return nil, fmt.Errorf("sampling: %d samples cannot form 2k=%d subsets", v.Len(), 2*k)
	}
	idx := SortedByDay(v)
	bounds := chunkBounds(len(idx), 2*k)
	folds := make([]FoldView, 0, k)
	for i := 0; i < k; i++ {
		trLo, trHi := bounds[i], bounds[i+k]
		vaLo, vaHi := bounds[i+k], bounds[i+k+1]
		folds = append(folds, FoldView{
			Train: v.WithRows(idx[trLo:trHi:trHi]),
			Val:   v.WithRows(idx[vaLo:vaHi:vaHi]),
		})
	}
	return folds, nil
}

// KFoldCVView is the conventional k-fold cross-validation the paper
// argues against (training folds may contain future data), kept for
// the cross-validation ablation: a seeded shuffle of the rows cut into
// k contiguous folds.
func KFoldCVView(v ml.View, k int, seed int64) ([]FoldView, error) {
	if k < 2 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 2", k)
	}
	if v.Len() < k {
		return nil, fmt.Errorf("sampling: %d samples cannot form %d folds", v.Len(), k)
	}
	idx := v.Indices()
	r := rand.New(rng.NewSource(seed))
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	bounds := chunkBounds(len(idx), k)
	folds := make([]FoldView, 0, k)
	for i := 0; i < k; i++ {
		tr := make([]int32, 0, len(idx)-(bounds[i+1]-bounds[i]))
		for j := 0; j < k; j++ {
			if j != i {
				tr = append(tr, idx[bounds[j]:bounds[j+1]]...)
			}
		}
		folds = append(folds, FoldView{
			Train: v.WithRows(tr),
			Val:   v.WithRows(idx[bounds[i]:bounds[i+1]:bounds[i+1]]),
		})
	}
	return folds, nil
}

// chunkBounds returns the n+1 boundaries dividing length rows into n
// contiguous near-equal subsets, the first length%n one row larger.
func chunkBounds(length, n int) []int {
	bounds := make([]int, n+1)
	base := length / n
	rem := length % n
	start := 0
	for i := 0; i < n; i++ {
		bounds[i] = start
		size := base
		if i < rem {
			size++
		}
		start += size
	}
	bounds[n] = start
	return bounds
}
