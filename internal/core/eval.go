package core

import (
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/sampling"
)

// Evaluation bundles the paper's Section IV metrics for one test set,
// at both sample and drive granularity.
type Evaluation struct {
	// Confusion is the per-sample confusion matrix at threshold 0.5.
	Confusion metrics.Confusion
	// AUC is the per-sample area under the ROC curve.
	AUC float64
	// DriveConfusion aggregates per drive: a drive counts as predicted
	// faulty when more than half of its test samples are flagged.
	DriveConfusion metrics.Confusion
}

// TPR returns the per-sample true positive rate.
func (e *Evaluation) TPR() float64 { return e.Confusion.TPR() }

// FPR returns the per-sample false positive rate.
func (e *Evaluation) FPR() float64 { return e.Confusion.FPR() }

// Accuracy returns the per-sample accuracy.
func (e *Evaluation) Accuracy() float64 { return e.Confusion.Accuracy() }

// PDR returns the per-sample positive detection rate.
func (e *Evaluation) PDR() float64 { return e.Confusion.PDR() }

// EvaluateSamples scores every row of v at the conventional 0.5
// threshold and aggregates at both granularities.
func EvaluateSamples(clf ml.Classifier, v ml.View) Evaluation {
	return EvaluateSamplesAt(clf, v, 0.5)
}

// EvaluateSamplesAt scores every row of v at the given decision
// threshold and aggregates at both granularities. Rows are scored
// straight out of the arena (in arena order, see ml.ScoreView) across
// GOMAXPROCS goroutines; aggregation is serial and in view order, so
// the evaluation is identical at any parallelism.
func EvaluateSamplesAt(clf ml.Classifier, v ml.View, threshold float64) Evaluation {
	scores := ml.BatchScoresView(clf, v, 0)
	return evaluateScores(scores, threshold, func(i int) (int, string) { return v.Y(i), v.SN(i) })
}

// evaluateScores aggregates per-row scores, in row order, into the
// sample and drive confusions and the sample AUC; row(i) gives row i's
// label and drive serial number.
func evaluateScores(scores []float64, threshold float64, row func(i int) (y int, sn string)) Evaluation {
	var ev Evaluation
	labels := make([]int, len(scores))

	type driveAgg struct {
		flagged, total int
		y              int
	}
	drives := make(map[string]*driveAgg)

	for i, p := range scores {
		y, sn := row(i)
		labels[i] = y
		pred := 0
		if p >= threshold {
			pred = 1
		}
		ev.Confusion.Add(pred, y)

		agg := drives[sn]
		if agg == nil {
			agg = &driveAgg{}
			drives[sn] = agg
		}
		agg.total++
		agg.flagged += pred
		if y == 1 {
			agg.y = 1
		}
	}
	ev.AUC = metrics.AUC(metrics.ROCFromScores(scores, labels))
	for _, agg := range drives {
		pred := 0
		if float64(agg.flagged) > float64(agg.total)/2 {
			pred = 1
		}
		ev.DriveConfusion.Add(pred, agg.y)
	}
	return ev
}

// Predict scores one feature vector with the trained model.
func (m *Model) Predict(x []float64) float64 { return m.Classifier.PredictProba(x) }

// MonthlyEvaluation is one month of a walk-forward study.
type MonthlyEvaluation struct {
	Month    int // 1-based month index after the training window
	FromDay  int
	ToDay    int
	Eval     Evaluation
	Positive int
	Negative int
}

// WalkForward evaluates the model month by month after its training
// window without re-training, as in the paper's five-month portability
// study. monthDays is the month length (30 in the paper's framing).
func (m *Model) WalkForward(v ml.View, monthDays, months int) []MonthlyEvaluation {
	// One chronological row order up front; each month is then a
	// binary-searched run of it instead of an O(n) filter.
	sorted := sampling.SortedByDay(v)
	out := make([]MonthlyEvaluation, 0, months)
	for month := 1; month <= months; month++ {
		from := m.TrainEndDay + 1 + (month-1)*monthDays
		to := m.TrainEndDay + month*monthDays
		window := dayWindow(v, sorted, from, to)
		if window.Len() == 0 {
			continue
		}
		neg, pos := window.ClassCounts()
		out = append(out, MonthlyEvaluation{
			Month:    month,
			FromDay:  from,
			ToDay:    to,
			Eval:     EvaluateSamplesAt(m.Classifier, window, m.Threshold),
			Positive: pos,
			Negative: neg,
		})
	}
	return out
}

// dayWindow returns the view over the run of sorted — v's arena rows in
// day order, from sampling.SortedByDay — holding fromDay ≤ Day ≤ toDay.
func dayWindow(v ml.View, sorted []int32, fromDay, toDay int) ml.View {
	set := v.Set()
	lo := sort.Search(len(sorted), func(i int) bool { return set.Day(int(sorted[i])) >= fromDay })
	hi := sort.Search(len(sorted), func(i int) bool { return set.Day(int(sorted[i])) > toDay })
	hi = max(lo, hi)
	return v.WithRows(sorted[lo:hi:hi])
}
