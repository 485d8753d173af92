// Package metrics implements the evaluation metrics of the paper's
// Section IV: the confusion matrix, accuracy, true/false positive
// rates, the newly introduced positive detection rate (PDR), and the
// ROC curve with its AUC.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add records one (prediction, truth) pair.
func (c *Confusion) Add(predicted, actual int) {
	switch {
	case predicted == 1 && actual == 1:
		c.TP++
	case predicted == 1 && actual == 0:
		c.FP++
	case predicted == 0 && actual == 1:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded cases.
func (c *Confusion) Total() int { return c.TP + c.FP + c.FN + c.TN }

// Accuracy is (TP+TN) / all cases; NaN when empty.
func (c *Confusion) Accuracy() float64 {
	return ratio(float64(c.TP+c.TN), float64(c.Total()))
}

// TPR is TP / (TP+FN), the proportion of faulty cases correctly
// predicted; NaN when there are no positives.
func (c *Confusion) TPR() float64 {
	return ratio(float64(c.TP), float64(c.TP+c.FN))
}

// FPR is FP / (FP+TN), the false alarm expectancy; NaN when there are
// no negatives.
func (c *Confusion) FPR() float64 {
	return ratio(float64(c.FP), float64(c.FP+c.TN))
}

// PDR is the paper's positive detection rate (TP+FP) / all cases: the
// share of the fleet the model would flag for migration, a direct proxy
// for the operational cost of acting on predictions.
func (c *Confusion) PDR() float64 {
	return ratio(float64(c.TP+c.FP), float64(c.Total()))
}

// String formats the matrix and headline rates for reports.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d TPR=%.4f FPR=%.4f ACC=%.4f PDR=%.4f",
		c.TP, c.FP, c.FN, c.TN, c.TPR(), c.FPR(), c.Accuracy(), c.PDR())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	Threshold float64
	TPR       float64
	FPR       float64
}

// ROCFromScores builds a ROC curve from precomputed scores.
func ROCFromScores(scores []float64, labels []int) []ROCPoint {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores but %d labels", len(scores), len(labels)))
	}
	var pos, neg int
	for _, y := range labels {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	points := []ROCPoint{{Threshold: math.Inf(1)}}
	// Each point consumes all samples sharing one score, so ties move
	// the curve diagonally rather than optimistically.
	tieGroups(scores, labels, func(s float64, tp, fp int) {
		points = append(points, ROCPoint{
			Threshold: s,
			TPR:       safeDiv(tp, pos),
			FPR:       safeDiv(fp, neg),
		})
	})
	return points
}

// tieGroups calls fn once per distinct score, in descending score
// order, with the number of positive (label 1) and other samples
// scoring at or above it. NaN scores rank below every other score, so
// a diverged model's NaNs form one group at the bottom of the curve.
// Each class's scores are sorted on their own and the two runs merged.
func tieGroups(scores []float64, labels []int, fn func(s float64, tp, fp int)) {
	sorted := make([]float64, len(scores))
	p, n := 0, len(scores)
	for i, s := range scores {
		if labels[i] == 1 {
			sorted[p] = s
			p++
		} else {
			n--
			sorted[n] = s
		}
	}
	pos, neg := sorted[:p], sorted[p:]
	slices.Sort(pos) // ascending, NaNs first
	slices.Sort(neg)
	i, j := len(pos)-1, len(neg)-1
	tp, fp := 0, 0
	for i >= 0 || j >= 0 {
		var s float64
		switch {
		case i < 0:
			s = neg[j]
		case j < 0 || cmp.Less(neg[j], pos[i]):
			s = pos[i]
		default:
			s = neg[j]
		}
		for ; i >= 0 && sameScore(pos[i], s); i-- {
			tp++
		}
		for ; j >= 0 && sameScore(neg[j], s); j-- {
			fp++
		}
		fn(s, tp, fp)
	}
}

// sameScore reports whether a and b fall in one tie group: equal, or
// both NaN.
func sameScore(a, b float64) bool {
	return a == b || (a != a && b != b)
}

func safeDiv(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// AUC returns the area under the ROC curve by trapezoidal rule.
func AUC(points []ROCPoint) float64 {
	var area float64
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		area += dx * (points[i].TPR + points[i-1].TPR) / 2
	}
	return area
}
