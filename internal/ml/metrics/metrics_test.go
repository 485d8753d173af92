package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestConfusionRates(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2, TN: 88}
	if got := c.TPR(); got != 0.8 {
		t.Errorf("TPR = %g, want 0.8", got)
	}
	if got := c.FPR(); math.Abs(got-2.0/90) > 1e-12 {
		t.Errorf("FPR = %g", got)
	}
	if got := c.Accuracy(); got != 0.96 {
		t.Errorf("ACC = %g", got)
	}
	if got := c.PDR(); got != 0.10 {
		t.Errorf("PDR = %g", got)
	}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("Precision = %g", got)
	}
	if got := c.F1(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("F1 = %g", got)
	}
	if c.Total() != 100 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestConfusionNaNWhenUndefined(t *testing.T) {
	var c Confusion
	for _, v := range []float64{c.TPR(), c.FPR(), c.Accuracy(), c.Precision(), c.PDR(), c.F1()} {
		if !math.IsNaN(v) {
			t.Fatalf("empty confusion yielded %g, want NaN", v)
		}
	}
}

func TestConfusionAdd(t *testing.T) {
	var c Confusion
	c.Add(1, 1)
	c.Add(1, 0)
	c.Add(0, 1)
	c.Add(0, 0)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.String() == "" {
		t.Fatal("String should render")
	}
}

func TestPerfectAUC(t *testing.T) {
	scores, labels := []float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0}
	if got := AUC(ROCFromScores(scores, labels)); got != 1 {
		t.Fatalf("perfect ranking AUC = %g, want 1", got)
	}
}

func TestReversedAUC(t *testing.T) {
	scores, labels := []float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}
	if got := AUC(ROCFromScores(scores, labels)); got != 0 {
		t.Fatalf("reversed ranking AUC = %g, want 0", got)
	}
}

func TestTiedScoresAUC(t *testing.T) {
	// All samples share one score: AUC must be exactly 0.5 (diagonal),
	// not optimistic.
	scores, labels := []float64{0.5, 0.5, 0.5, 0.5}, []int{1, 0, 1, 0}
	if got := AUC(ROCFromScores(scores, labels)); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %g, want 0.5", got)
	}
}

func TestRandomScoresAUCNearHalf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Intn(2)
	}
	auc := AUC(ROCFromScores(scores, labels))
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %g, want ≈0.5", auc)
	}
}

func TestROCMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	scores := make([]float64, 500)
	labels := make([]int, 500)
	for i := range scores {
		scores[i] = r.NormFloat64() + float64(labels[i])
		labels[i] = i % 2
	}
	roc := ROCFromScores(scores, labels)
	for i := 1; i < len(roc); i++ {
		if roc[i].TPR < roc[i-1].TPR || roc[i].FPR < roc[i-1].FPR {
			t.Fatal("ROC not monotone")
		}
		if roc[i].Threshold > roc[i-1].Threshold {
			t.Fatal("thresholds not descending")
		}
	}
	last := roc[len(roc)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("ROC does not end at (1,1): %+v", last)
	}
}

func TestAUCBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(100)
		scores := make([]float64, n)
		labels := make([]int, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = r.Float64()
			labels[i] = r.Intn(2)
			if labels[i] == 1 {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		auc := AUC(ROCFromScores(scores, labels))
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestROCFromScoresPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	ROCFromScores([]float64{1}, []int{1, 0})
}

func TestPRCurvePerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	pts := PRFromScores(scores, labels)
	if ap := AveragePrecision(pts); ap != 1 {
		t.Fatalf("perfect AP = %g, want 1", ap)
	}
	last := pts[len(pts)-1]
	if last.Recall != 1 {
		t.Fatalf("curve does not reach recall 1: %+v", last)
	}
}

func TestPRCurveRecallMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scores := make([]float64, 300)
	labels := make([]int, 300)
	for i := range scores {
		labels[i] = i % 2
		scores[i] = r.Float64() + 0.3*float64(labels[i])
	}
	pts := PRFromScores(scores, labels)
	for i := 1; i < len(pts); i++ {
		if pts[i].Recall < pts[i-1].Recall {
			t.Fatal("recall not monotone")
		}
	}
	ap := AveragePrecision(pts)
	if ap <= 0.5 || ap > 1 {
		t.Fatalf("AP = %g for a mildly informative scorer", ap)
	}
}

func TestAveragePrecisionBaseRate(t *testing.T) {
	// An uninformative scorer's AP approaches the positive base rate.
	r := rand.New(rand.NewSource(6))
	n := 4000
	scores := make([]float64, n)
	labels := make([]int, n)
	pos := 0
	for i := range scores {
		scores[i] = r.Float64()
		if r.Float64() < 0.2 {
			labels[i] = 1
			pos++
		}
	}
	ap := AveragePrecision(PRFromScores(scores, labels))
	base := float64(pos) / float64(n)
	if math.Abs(ap-base) > 0.05 {
		t.Fatalf("random AP = %g, base rate %g", ap, base)
	}
}

// TestCurvesRankNaNScoresLast pins how both curves treat NaN scores, as
// a diverged model emits them: they rank below every other score as one
// tie group, and the curves still end at the (1, 1) corner.
func TestCurvesRankNaNScoresLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{0.2, nan, 0.9, nan, 0.2}
	labels := []int{0, 1, 1, 0, 1}

	roc := ROCFromScores(scores, labels)
	wantThr := []float64{math.Inf(1), 0.9, 0.2, nan}
	wantTPR := []float64{0, 1.0 / 3, 2.0 / 3, 1}
	wantFPR := []float64{0, 0, 0.5, 1}
	if len(roc) != len(wantThr) {
		t.Fatalf("ROC has %d points, want %d: %+v", len(roc), len(wantThr), roc)
	}
	for i, pt := range roc {
		if !sameScore(pt.Threshold, wantThr[i]) || pt.TPR != wantTPR[i] || pt.FPR != wantFPR[i] {
			t.Fatalf("ROC point %d = %+v, want {%g %g %g}", i, pt, wantThr[i], wantTPR[i], wantFPR[i])
		}
	}

	pr := PRFromScores(scores, labels)
	if len(pr) != 3 {
		t.Fatalf("PR has %d points, want 3: %+v", len(pr), pr)
	}
	if last := pr[2]; !math.IsNaN(last.Threshold) || last.Recall != 1 || last.Precision != 3.0/5 {
		t.Fatalf("PR NaN group = %+v, want recall 1 at precision 0.6", last)
	}
}

// TestCurvesMatchIndexSortOracle checks the merged per-class ranking
// against the direct construction — one index sort of all scores, then
// a walk over tie groups — on scores quantised to force many ties.
func TestCurvesMatchIndexSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = float64(r.Intn(1+trial*3)) / 7
			labels[i] = r.Intn(2)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		var pos, neg int
		for _, y := range labels {
			if y == 1 {
				pos++
			} else {
				neg++
			}
		}
		want := []ROCPoint{{Threshold: math.Inf(1)}}
		var wantPR []PRPoint
		tp, fp := 0, 0
		for i := 0; i < n; {
			s := scores[idx[i]]
			for ; i < n && scores[idx[i]] == s; i++ {
				if labels[idx[i]] == 1 {
					tp++
				} else {
					fp++
				}
			}
			want = append(want, ROCPoint{Threshold: s, TPR: safeDiv(tp, pos), FPR: safeDiv(fp, neg)})
			wantPR = append(wantPR, PRPoint{Threshold: s, Precision: float64(tp) / float64(tp+fp), Recall: safeDiv(tp, pos)})
		}
		if got := ROCFromScores(scores, labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ROC\n got %+v\nwant %+v", trial, got, want)
		}
		if got := PRFromScores(scores, labels); !reflect.DeepEqual(got, wantPR) {
			t.Fatalf("trial %d: PR\n got %+v\nwant %+v", trial, got, wantPR)
		}
	}
}
