package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread the README's comparison
// procedure uses; the expected values were computed with Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	// Python refuses a single value; one operation's quartiles are that
	// operation's latency.
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles([7]) = %v %v %v, want 7 7 7", q1, q2, q3)
	}
}

// TestTailPercentile checks the choice of the highest percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99},
		{999, 95},
		{300, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{40, 75},
		{39, 0},
		{5, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-nearestRank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, p, tc.n-nearestRank(tc.n, p))
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
	if got := tail(xs[:4], 0); got != 2.5 {
		t.Errorf("tail 0 of 1..4 = %v, want the median 2.5", got)
	}
}
