package ml_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/mltest"
	"repro/internal/ml/predict"
	"repro/internal/sampling"
)

// driveDays is the days per drive of driveOrderedSet.
const driveDays = 60

// driveOrderedSet lays mltest.Continuous rows out the way
// features.BuildSampleSetFrame does: drive by drive, each drive's rows
// in day order, so arena order is drive order and day order is not.
func driveOrderedSet(t testing.TB, n int) *ml.SampleSet {
	t.Helper()
	samples := mltest.Continuous(n, 5)
	for i := range samples {
		samples[i].SN = fmt.Sprintf("drive%03d", i/driveDays)
		samples[i].Day = i % driveDays
	}
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// scoreViews are the row selections ScoreView must score in view
// order whatever order it scores them in.
func scoreViews(set *ml.SampleSet) []mltest.NamedView {
	all := set.All()
	perm := rand.New(rand.NewSource(9)).Perm(set.Len())
	shuffled := make([]int32, len(perm))
	for i, p := range perm {
		shuffled[i] = int32(p)
	}
	_, daySorted := sampling.SplitFractionView(all, 0)
	var subset []int32
	for r := set.Len() - 1; r >= 0; r -= 3 {
		subset = append(subset, int32(r))
	}
	repeated := []int32{7, 3, 7, 0, 3, 3, int32(set.Len() - 1), 7, 0}
	return []mltest.NamedView{
		{Name: "all", View: all},
		{Name: "shuffled", View: all.WithRows(shuffled)},
		{Name: "day-sorted", View: daySorted},
		{Name: "row-subset", View: all.WithRows(subset)},
		{Name: "repeated-rows", View: all.WithRows(repeated)},
		{Name: "single-row", View: all.WithRows([]int32{11})},
		{Name: "empty", View: all.WithRows([]int32{})},
	}
}

// TestScoreViewMatchesScoreBatch pins ScoreView's arena-order scoring
// to the plain view-order batch call, Float64bits-exact, for the
// forest on both batch kernels (the small-arena AoS walk and the
// padded blocked walk), GBDT, and a classifier with no batch path.
func TestScoreViewMatchesScoreBatch(t *testing.T) {
	set := driveOrderedSet(t, 3000)
	all := set.All()
	type model struct {
		name string
		clf  ml.Classifier
		// nodes bounds the compiled forest arena: > 0 wants at most
		// that many nodes, < 0 more than -nodes.
		nodes int
	}
	fit := func(tr ml.Trainer) ml.Classifier {
		clf, err := tr.Train(all)
		if err != nil {
			t.Fatal(err)
		}
		return clf
	}
	// 16384 is the predict kernel's small-arena cut-over.
	models := []model{
		{"forest-aos", fit(&forest.Trainer{Trees: 8, MaxDepth: 5, Seed: 1}), 16384},
		{"forest-padded", fit(&forest.Trainer{Trees: 40, MaxDepth: 16, Seed: 2}), -16384},
		{"gbdt", fit(&gbdt.Trainer{Rounds: 25, Seed: 3}), 0},
		{"bayes-per-row", fit(&bayes.Trainer{}), 0},
	}
	for _, m := range models {
		if m.nodes != 0 {
			e, err := predict.CompileForest(m.clf.(*forest.Model).Export().Trees)
			if err != nil {
				t.Fatal(err)
			}
			if small := e.Nodes() <= 16384; small != (m.nodes > 0) {
				t.Fatalf("%s: arena of %d nodes is on the wrong kernel", m.name, e.Nodes())
			}
		}
		if _, ok := m.clf.(ml.BatchClassifier); ok == (m.name == "bayes-per-row") {
			t.Fatalf("%s: batch path present = %v", m.name, ok)
		}
		for _, nv := range scoreViews(set) {
			want := make([]float64, nv.View.Len())
			ml.ScoreBatch(m.clf, nv.View.Xs(), want, 1)
			for _, workers := range []int{1, 3} {
				got := make([]float64, nv.View.Len())
				ml.ScoreView(m.clf, nv.View, got, workers)
				for call, scores := range map[string][]float64{
					"ScoreView":       got,
					"BatchScoresView": ml.BatchScoresView(m.clf, nv.View, workers),
				} {
					if len(scores) != len(want) {
						t.Fatalf("%s/%s: %s returned %d scores, want %d", m.name, nv.Name, call, len(scores), len(want))
					}
					for i := range want {
						if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s/workers=%d: %s scored position %d %v, want %v",
								m.name, nv.Name, workers, call, i, scores[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestScoreViewColumnSubsetPanics(t *testing.T) {
	set := driveOrderedSet(t, 120)
	defer func() {
		if recover() == nil {
			t.Fatal("column-subset view scored")
		}
	}()
	v := set.All().WithCols([]int{0, 2})
	ml.ScoreView(&bayes.Model{}, v, make([]float64, v.Len()), 1)
}

// TestInArenaOrder checks the reordering ScoreView scores through: rows
// ascend, pos maps each back to a position holding the same row, every
// position appears once, and ascending views come back unchanged.
func TestInArenaOrder(t *testing.T) {
	set := driveOrderedSet(t, 300)
	for _, nv := range scoreViews(set) {
		sorted, pos := nv.View.InArenaOrder()
		if pos == nil {
			for i := 1; i < nv.View.Len(); i++ {
				if nv.View.RowIndex(i) < nv.View.RowIndex(i-1) {
					t.Fatalf("%s: descending view reported as ascending", nv.Name)
				}
			}
			continue
		}
		if sorted.Len() != nv.View.Len() || len(pos) != nv.View.Len() {
			t.Fatalf("%s: %d rows and %d positions for a %d-row view", nv.Name, sorted.Len(), len(pos), nv.View.Len())
		}
		seen := make([]bool, len(pos))
		for k, p := range pos {
			if k > 0 && sorted.RowIndex(k) < sorted.RowIndex(k-1) {
				t.Fatalf("%s: row %d not ascending", nv.Name, k)
			}
			if seen[p] {
				t.Fatalf("%s: position %d appears twice", nv.Name, p)
			}
			seen[p] = true
			if sorted.RowIndex(k) != nv.View.RowIndex(int(p)) {
				t.Fatalf("%s: slot %d holds row %d, position %d holds row %d",
					nv.Name, k, sorted.RowIndex(k), p, nv.View.RowIndex(int(p)))
			}
		}
	}
}

// BenchmarkScoreView scores a day-sorted view of a drive-ordered set:
// the held-out and validation shape sampling hands to ScoreView. As in
// fleet telemetry, a drive's features drift slowly from day to day and
// its label is fixed, so a drive's consecutive rows take the same tree
// paths while consecutive days of different drives do not.
func BenchmarkScoreView(b *testing.B) {
	const drives = 500
	base := mltest.Continuous(drives, 7)
	samples := make([]ml.Sample, 0, drives*driveDays)
	for d, s := range base {
		for day := 0; day < driveDays; day++ {
			// Fleet rows are wide: repeat the features out to 64 columns.
			x := make([]float64, 64)
			for j := range x {
				x[j] = s.X[j%len(s.X)] * (1 + 0.002*float64(day+j))
			}
			samples = append(samples, ml.Sample{X: x, Y: s.Y, Day: day, SN: fmt.Sprintf("drive%03d", d)})
		}
	}
	set, err := ml.FromSamples(samples)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := (&forest.Trainer{Trees: 100, MaxDepth: 12, Seed: 1}).Train(set.All())
	if err != nil {
		b.Fatal(err)
	}
	_, daySorted := sampling.SplitFractionView(set.All(), 0)
	out := make([]float64, daySorted.Len())
	ml.ScoreView(clf, daySorted, out, 1) // compile the batch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.ScoreView(clf, daySorted, out, 1)
	}
}
