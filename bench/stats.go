package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, the mean of the two middle values
// for an even count, and 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones the
// README's comparison procedure computes from saved results, including
// its extrapolation at the ends of short samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// minBeyond is how many samples a reported tail percentile must leave
// beyond it, so a tail is never set by a handful of samples.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond its nearest rank, or 0 when none
// does (fewer than 4*minBeyond samples).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// tail is the p-th percentile of xs, or their median when p is 0.
func tail(xs []float64, p float64) float64 {
	if p > 0 {
		return percentile(xs, p)
	}
	return median(xs)
}

// nearestRank is the 1-based nearest rank of percentile p in n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(len(s), p)-1]
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
