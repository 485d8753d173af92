package metrics

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/rng"
)

// BootstrapCI estimates a two-sided confidence interval for a rate
// metric by resampling (score, label) pairs with replacement. The
// paper's vendor-IV instability (Fig 11) is exactly the phenomenon this
// quantifies: with few failures the interval is enormous.
//
// metric receives the confusion matrix of one resample at the given
// threshold; iters resamples are drawn; level is the coverage (e.g.
// 0.95). Deterministic in seed.
func BootstrapCI(scores []float64, labels []int, threshold float64,
	metric func(Confusion) float64, iters int, level float64, seed int64) (lo, hi float64, err error) {
	if len(scores) != len(labels) {
		return 0, 0, fmt.Errorf("metrics: %d scores but %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 {
		return 0, 0, fmt.Errorf("metrics: empty sample")
	}
	if iters < 10 {
		return 0, 0, fmt.Errorf("metrics: iters %d must be ≥ 10", iters)
	}
	if level <= 0 || level >= 1 {
		return 0, 0, fmt.Errorf("metrics: level %g must be in (0,1)", level)
	}
	r := rand.New(rng.NewSource(seed))
	stats := make([]float64, 0, iters)
	n := len(scores)
	for it := 0; it < iters; it++ {
		var c Confusion
		for i := 0; i < n; i++ {
			j := r.Intn(n)
			pred := 0
			if scores[j] >= threshold {
				pred = 1
			}
			c.Add(pred, labels[j])
		}
		v := metric(c)
		if v == v { // skip NaN resamples (e.g. no positives drawn)
			stats = append(stats, v)
		}
	}
	if len(stats) == 0 {
		return 0, 0, fmt.Errorf("metrics: every resample was degenerate")
	}
	sort.Float64s(stats)
	alpha := (1 - level) / 2
	lo = quantile(stats, alpha)
	hi = quantile(stats, 1-alpha)
	return lo, hi, nil
}

// quantile returns the q-th empirical quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
