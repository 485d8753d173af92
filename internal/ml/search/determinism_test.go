package search

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// wideTrendData is trendData with a configurable width: feature 0
// carries the signal, the rest are noise.
func wideTrendData(n, width int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]ml.Sample, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, width)
		v := r.NormFloat64()
		x[0] = v + 0.2*r.NormFloat64()
		for j := 1; j < width; j++ {
			x[j] = r.NormFloat64()
		}
		y := 0
		if v > 0 {
			y = 1
		}
		out = append(out, ml.Sample{X: x, Y: y, Day: i, SN: "sn"})
	}
	return out
}

func treeFactory(params map[string]float64) ml.Trainer {
	return &cart{tree.Config{
		MaxDepth:       int(params["depth"]),
		MinSamplesLeaf: 10,
	}}
}

// TestGridSearchWorkersIdentical asserts the (combo × fold) fan-out
// reproduces the serial sweep exactly, including candidate order and
// floating-point scores.
func TestGridSearchWorkersIdentical(t *testing.T) {
	v := viewOf(t, trendData(400, 21))
	grid := Grid{"depth": {1, 2, 4, 6}}
	want, wantBest, err := GridSearchSet(treeFactory, grid, v, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 8} {
		got, gotBest, err := GridSearchSet(treeFactory, grid, v, 3, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: candidates = %v, want %v", w, got, want)
		}
		if !reflect.DeepEqual(gotBest, wantBest) {
			t.Fatalf("workers=%d: best = %v, want %v", w, gotBest, wantBest)
		}
	}
}

// failingTrainer fails training whenever its marker is set, standing in
// for a hyper-parameter combination that cannot fit.
type failingTrainer struct {
	fail  bool
	inner ml.Trainer
}

func (f *failingTrainer) Train(v ml.View) (ml.Classifier, error) {
	if f.fail {
		return nil, errors.New("unfittable combination")
	}
	return f.inner.Train(v)
}

func (f *failingTrainer) Name() string { return "failing" }

// TestGridSearchWorkersErrorIdentical asserts a mid-fan-out training
// failure surfaces the same error at every worker count: the one the
// serial left-to-right sweep would hit first.
func TestGridSearchWorkersErrorIdentical(t *testing.T) {
	v := viewOf(t, trendData(200, 22))
	factory := func(params map[string]float64) ml.Trainer {
		return &failingTrainer{fail: params["depth"] >= 4, inner: treeFactory(params)}
	}
	grid := Grid{"depth": {1, 2, 4, 6}}
	_, _, err := GridSearchSet(factory, grid, v, 3, 1)
	if err == nil {
		t.Fatal("failing combination accepted")
	}
	want := err.Error()
	for _, w := range []int{0, 2, 3, 8} {
		_, _, err := GridSearchSet(factory, grid, v, 3, w)
		if err == nil {
			t.Fatalf("workers=%d: failing combination accepted", w)
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", w, err, want)
		}
	}
}

// TestForwardSelectWorkersIdentical asserts the candidate fan-out of
// SFS reproduces the serial trajectory exactly.
func TestForwardSelectWorkersIdentical(t *testing.T) {
	samples := wideTrendData(600, 5, 23)
	train, val := viewOf(t, samples[:400]), viewOf(t, samples[400:])
	trainer := &cart{tree.Config{MaxDepth: 4, MinSamplesLeaf: 10}}
	names := []string{"signal", "n1", "n2", "n3", "n4"}
	want, err := ForwardSelectSet(trainer, train, val, names, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 8} {
		got, err := ForwardSelectSet(trainer, train, val, names, 3, 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: selection differs: %v vs %v", w, got.Names, want.Names)
		}
	}
}

// TestForwardSelectWorkersErrorIdentical asserts a candidate failing
// mid-step yields the serial error at every worker count.
func TestForwardSelectWorkersErrorIdentical(t *testing.T) {
	samples := wideTrendData(200, 3, 24)
	train, val := viewOf(t, samples[:150]), viewOf(t, samples[150:])
	trainer := &failingTrainer{fail: true}
	names := []string{"a", "b", "c"}
	_, err := ForwardSelectSet(trainer, train, val, names, 0, 0, 1)
	if err == nil {
		t.Fatal("failing trainer accepted")
	}
	want := err.Error()
	for _, w := range []int{0, 2, 8} {
		_, err := ForwardSelectSet(trainer, train, val, names, 0, 0, w)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: error %v, want %q", w, err, want)
		}
	}
}
