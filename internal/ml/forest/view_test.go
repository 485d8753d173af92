package forest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/mltest"
	"repro/internal/sampling"
)

// discreteData draws features from small integer alphabets, so the
// bin budget covers every distinct value.
func discreteData(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]ml.Sample, n)
	for i := range out {
		a := float64(r.Intn(12))
		b := float64(r.Intn(8))
		c := float64(r.Intn(5))
		d := float64(r.Intn(3))
		y := 0
		if a+b > 12 || (c > 2 && a > 6) {
			y = 1
		}
		if r.Float64() < 0.08 {
			y = 1 - y
		}
		out[i] = ml.Sample{X: []float64{a, b, c, d}, Y: y, Day: i / 7, SN: fmt.Sprintf("s%d", i%37)}
	}
	return out
}

func assertSamePredictions(t *testing.T, name string, a, b ml.Classifier, probes []ml.Sample) {
	t.Helper()
	for i := range probes {
		pa := a.PredictProba(probes[i].X)
		pb := b.PredictProba(probes[i].X)
		if pa != pb {
			t.Fatalf("%s: probe %d: %v vs %v", name, i, pa, pb)
		}
	}
}

// TestForestTrainViewMatchesTrainOnFullSet: on the full set the view
// path and the slice oracle bin the same rows, so the two are
// bit-exact.
func TestForestTrainViewMatchesTrainOnFullSet(t *testing.T) {
	samples := rings(500, 3)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Trees: 25, MaxDepth: 8, Seed: 7}
	sliceClf, err := tr.fitSlice(samples)
	if err != nil {
		t.Fatal(err)
	}
	viewClf, err := tr.Train(set.All())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, "full set", sliceClf, viewClf, rings(300, 4))
}

// TestForestTrainViewSubsetMatchesSliceSubset trains on an
// under-sampled row subset both ways: the slice oracle on the subset's
// materialised rows, Train on the view. The fitted forests must be
// identical.
func TestForestTrainViewSubsetMatchesSliceSubset(t *testing.T) {
	samples := discreteData(700, 5)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 9} {
		subView, err := sampling.UnderSampleView(set.All(), 1.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		subSlice := mltest.Materialize(subView)
		tr := &Trainer{Trees: 20, MaxDepth: 7, Seed: seed + 31}
		sliceClf, err := tr.fitSlice(subSlice)
		if err != nil {
			t.Fatal(err)
		}
		viewClf, err := tr.Train(subView)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("seed=%d", seed), sliceClf, viewClf, discreteData(300, seed+77))
	}
}

// TestForestTrainViewWorkerInvariant asserts the view path keeps the
// repository's parallelism contract: results are identical at any
// Parallelism setting.
func TestForestTrainViewWorkerInvariant(t *testing.T) {
	set, err := ml.FromSamples(discreteData(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sampling.UnderSampleView(set.All(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := (&Trainer{Trees: 15, MaxDepth: 6, Seed: 2, Parallelism: 1}).Train(v)
	if err != nil {
		t.Fatal(err)
	}
	probes := discreteData(200, 8)
	for _, workers := range []int{0, 2, 5} {
		clf, err := (&Trainer{Trees: 15, MaxDepth: 6, Seed: 2, Parallelism: workers}).Train(v)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("workers=%d", workers), base, clf, probes)
	}
}

// TestForestTrainViewColsMatchesMaskedSlice trains on a feature
// sub-view and on a hand-masked copy. The view model predicts on
// full-width rows (global feature indexes); the masked model predicts
// on masked rows. Their probabilities must agree bit-for-bit.
func TestForestTrainViewColsMatchesMaskedSlice(t *testing.T) {
	samples := discreteData(600, 11)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{2, 0, 3}
	masked := make([]ml.Sample, len(samples))
	for i := range samples {
		x := make([]float64, len(subset))
		for j, c := range subset {
			x[j] = samples[i].X[c]
		}
		masked[i] = ml.Sample{X: x, Y: samples[i].Y, Day: samples[i].Day, SN: samples[i].SN}
	}
	tr := &Trainer{Trees: 20, MaxDepth: 7, Seed: 13}
	maskClf, err := tr.fitSlice(masked)
	if err != nil {
		t.Fatal(err)
	}
	viewClf, err := tr.Train(set.All().WithCols(subset))
	if err != nil {
		t.Fatal(err)
	}
	probes := discreteData(250, 21)
	for i := range probes {
		mx := make([]float64, len(subset))
		for j, c := range subset {
			mx[j] = probes[i].X[c]
		}
		pm := maskClf.PredictProba(mx)
		pv := viewClf.PredictProba(probes[i].X)
		if pm != pv {
			t.Fatalf("probe %d: masked %v vs view %v", i, pm, pv)
		}
	}
}

// TestForestRejectsNegativeBins: a negative bin budget is an error,
// not a switch to another split engine.
func TestForestRejectsNegativeBins(t *testing.T) {
	v := mltest.View(discreteData(300, 14))
	for _, bins := range []int{-1, -256} {
		if _, err := (&Trainer{Trees: 10, MaxDepth: 6, Seed: 5, Bins: bins}).Train(v); err == nil {
			t.Fatalf("Bins %d accepted", bins)
		}
	}
}

// TestForestTrainViewMatchesMaterializeContinuous pins Train(v) to the
// slice oracle on v's materialised rows, bit for bit, on continuous
// features (far more distinct values than bins), for row-subset and
// column sub-views, at one worker and several, at the default and a
// small bin budget. A column sub-view's model scores full-width rows;
// the oracle's model scores the masked rows.
func TestForestTrainViewMatchesMaterializeContinuous(t *testing.T) {
	set, err := ml.FromSamples(mltest.Continuous(900, 1))
	if err != nil {
		t.Fatal(err)
	}
	views, err := mltest.Views(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	probes := mltest.Continuous(300, 3)
	for _, nv := range views {
		for _, c := range []struct{ workers, bins int }{{1, 0}, {3, 0}, {3, 16}} {
			tr := &Trainer{Trees: 15, MaxDepth: 8, Seed: 4, Parallelism: c.workers, Bins: c.bins}
			viewClf, err := tr.Train(nv.View)
			if err != nil {
				t.Fatal(err)
			}
			sliceClf, err := tr.fitSlice(mltest.Materialize(nv.View))
			if err != nil {
				t.Fatal(err)
			}
			if nv.View.Cols() == nil && !reflect.DeepEqual(viewClf.(*Model).Export(), sliceClf.Export()) {
				t.Fatalf("%s %+v: forests differ", nv.Name, c)
			}
			for i := range probes {
				pv := viewClf.PredictProba(probes[i].X)
				ps := sliceClf.PredictProba(mltest.Mask(probes[i].X, nv.View.Cols()))
				if math.Float64bits(pv) != math.Float64bits(ps) {
					t.Fatalf("%s %+v: probe %d: view %v, oracle %v", nv.Name, c, i, pv, ps)
				}
			}
		}
	}
}

// TestForestTrainViewIgnoresRowsOutsideView is the leakage test at the
// learner level: overwriting every feature of the rows outside the
// view with values no view row has must leave the forest and its
// scores on the view's rows bit-identical.
func TestForestTrainViewIgnoresRowsOutsideView(t *testing.T) {
	set, err := ml.FromSamples(mltest.Continuous(900, 5))
	if err != nil {
		t.Fatal(err)
	}
	views, err := mltest.Views(set, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Trees: 15, MaxDepth: 8, Seed: 7}
	for _, nv := range views {
		v := nv.View
		poisoned, err := mltest.PoisonOutside(set, v)
		if err != nil {
			t.Fatal(err)
		}
		pv := poisoned.All().WithRows(v.Indices()).WithCols(v.Cols())
		want, err := tr.Train(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Train(pv)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.(*Model).Export(), got.(*Model).Export()) {
			t.Fatalf("%s: rows outside the view changed the forest", nv.Name)
		}
		for i := 0; i < v.Len(); i++ {
			if a, b := want.PredictProba(v.Row(i)), got.PredictProba(pv.Row(i)); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: view row %d scores %v, was %v", nv.Name, i, b, a)
			}
		}
	}
}
