package sampling

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ml"
)

// synthPop builds a population with repeated days (exercising the
// stable-sort tie-break), imbalanced classes, and recurring serials —
// the shapes the view/slice equivalence must survive.
func synthPop(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	samples := make([]ml.Sample, n)
	for i := range samples {
		y := 0
		if r.Float64() < 0.2 {
			y = 1
		}
		samples[i] = ml.Sample{
			X:   []float64{float64(r.Intn(40)), r.Float64(), float64(i % 7)},
			Y:   y,
			Day: r.Intn(30),
			SN:  fmt.Sprintf("d%03d", r.Intn(25)),
		}
	}
	return samples
}

// assertViewEquals requires the view to select exactly the given
// samples, in order, bit-for-bit.
func assertViewEquals(t *testing.T, name string, v ml.View, want []ml.Sample) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("%s: view has %d rows, slice has %d", name, v.Len(), len(want))
	}
	for i := range want {
		if v.Y(i) != want[i].Y || v.Day(i) != want[i].Day || v.SN(i) != want[i].SN {
			t.Fatalf("%s: row %d is (y=%d day=%d sn=%s), want (y=%d day=%d sn=%s)",
				name, i, v.Y(i), v.Day(i), v.SN(i), want[i].Y, want[i].Day, want[i].SN)
		}
		x := v.Row(i)
		for j := range want[i].X {
			if x[j] != want[i].X[j] {
				t.Fatalf("%s: row %d feature %d: %v, want %v", name, i, j, x[j], want[i].X[j])
			}
		}
	}
}

func TestSplitFractionViewMatchesSlice(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		samples := synthPop(237, seed)
		set, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0, 0.5, 0.75, 1} {
			trS, teS := SplitFraction(samples, frac)
			trV, teV := SplitFractionView(set.All(), frac)
			assertViewEquals(t, fmt.Sprintf("seed=%d frac=%g train", seed, frac), trV, trS)
			assertViewEquals(t, fmt.Sprintf("seed=%d frac=%g test", seed, frac), teV, teS)
		}
	}
}

func TestSplitAtDayViewMatchesSlice(t *testing.T) {
	samples := synthPop(200, 3)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{-1, 0, 15, 29, 100} {
		trS, teS := SplitAtDay(samples, day)
		trV, teV := SplitAtDayView(set.All(), day)
		assertViewEquals(t, fmt.Sprintf("day=%d train", day), trV, trS)
		assertViewEquals(t, fmt.Sprintf("day=%d test", day), teV, teS)
	}
}

func TestRandomSplitViewMatchesSlice(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		samples := synthPop(311, seed)
		set, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		trS, teS := RandomSplit(samples, 0.3, seed+5)
		trV, teV := RandomSplitView(set.All(), 0.3, seed+5)
		assertViewEquals(t, fmt.Sprintf("seed=%d train", seed), trV, trS)
		assertViewEquals(t, fmt.Sprintf("seed=%d test", seed), teV, teS)
	}
}

func TestUnderSampleViewMatchesSlice(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		samples := synthPop(301, seed)
		set, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, ratio := range []float64{0.5, 1, 3, 100} {
			us, err := UnderSample(samples, ratio, seed+9)
			if err != nil {
				t.Fatal(err)
			}
			uv, err := UnderSampleView(set.All(), ratio, seed+9)
			if err != nil {
				t.Fatal(err)
			}
			assertViewEquals(t, fmt.Sprintf("seed=%d ratio=%g", seed, ratio), uv, us)
		}
	}
}

func TestUnderSampleViewRejectsBadRatio(t *testing.T) {
	set, err := ml.FromSamples(synthPop(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnderSampleView(set.All(), 0, 1); err == nil {
		t.Fatal("ratio 0 accepted")
	}
	if _, err := UnderSampleView(set.All(), -2, 1); err == nil {
		t.Fatal("negative ratio accepted")
	}
}

func TestTimeSeriesCVViewMatchesSlice(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		samples := synthPop(263, seed)
		set, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 5} {
			foldsS, err := TimeSeriesCV(samples, k)
			if err != nil {
				t.Fatal(err)
			}
			foldsV, err := TimeSeriesCVView(set.All(), k)
			if err != nil {
				t.Fatal(err)
			}
			if len(foldsS) != len(foldsV) {
				t.Fatalf("k=%d: %d view folds, %d slice folds", k, len(foldsV), len(foldsS))
			}
			for i := range foldsS {
				assertViewEquals(t, fmt.Sprintf("k=%d fold=%d train", k, i), foldsV[i].Train, foldsS[i].Train)
				assertViewEquals(t, fmt.Sprintf("k=%d fold=%d val", k, i), foldsV[i].Val, foldsS[i].Val)
			}
		}
	}
}

func TestTimeSeriesCVViewErrors(t *testing.T) {
	set, err := ml.FromSamples(synthPop(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TimeSeriesCVView(set.All(), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TimeSeriesCVView(set.All(), 3); err == nil {
		t.Fatal("5 samples into 2k=6 subsets accepted")
	}
}

func TestKFoldCVViewMatchesSlice(t *testing.T) {
	samples := synthPop(149, 11)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 7} {
		foldsS, err := KFoldCV(samples, k, 23)
		if err != nil {
			t.Fatal(err)
		}
		foldsV, err := KFoldCVView(set.All(), k, 23)
		if err != nil {
			t.Fatal(err)
		}
		if len(foldsS) != len(foldsV) {
			t.Fatalf("k=%d: %d view folds, %d slice folds", k, len(foldsV), len(foldsS))
		}
		for i := range foldsS {
			assertViewEquals(t, fmt.Sprintf("k=%d fold=%d train", k, i), foldsV[i].Train, foldsS[i].Train)
			assertViewEquals(t, fmt.Sprintf("k=%d fold=%d val", k, i), foldsV[i].Val, foldsS[i].Val)
		}
	}
}

// TestViewCompositionMatchesSliceComposition chains the primitives the
// way core.Train does — chronological split, then under-sampling, then
// CV on the training window — and requires the final row selections to
// match the slice pipeline exactly. This exercises views whose row
// index is already non-nil (views of views).
func TestViewCompositionMatchesSliceComposition(t *testing.T) {
	samples := synthPop(400, 13)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}

	trS, teS := SplitFraction(samples, 0.75)
	usS, err := UnderSample(trS, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	foldsS, err := TimeSeriesCV(trS, 3)
	if err != nil {
		t.Fatal(err)
	}

	trV, teV := SplitFractionView(set.All(), 0.75)
	usV, err := UnderSampleView(trV, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	foldsV, err := TimeSeriesCVView(trV, 3)
	if err != nil {
		t.Fatal(err)
	}

	assertViewEquals(t, "train", trV, trS)
	assertViewEquals(t, "test", teV, teS)
	assertViewEquals(t, "undersampled", usV, usS)
	for i := range foldsS {
		assertViewEquals(t, fmt.Sprintf("fold=%d train", i), foldsV[i].Train, foldsS[i].Train)
		assertViewEquals(t, fmt.Sprintf("fold=%d val", i), foldsV[i].Val, foldsS[i].Val)
		usFS, err := UnderSample(foldsS[i].Train, 3, 29)
		if err != nil {
			t.Fatal(err)
		}
		usFV, err := UnderSampleView(foldsV[i].Train, 3, 29)
		if err != nil {
			t.Fatal(err)
		}
		assertViewEquals(t, fmt.Sprintf("fold=%d undersampled", i), usFV, usFS)
	}
}

// sortedByDayOracle is the comparison sort the counting sort replaced.
func sortedByDayOracle(v ml.View) []int32 {
	idx := v.Indices()
	set := v.Set()
	sort.SliceStable(idx, func(a, b int) bool { return set.Day(int(idx[a])) < set.Day(int(idx[b])) })
	return idx
}

// daySet builds a set whose days are drawn from [lo, lo+span).
func daySet(t *testing.T, n, lo, span int, seed int64) *ml.SampleSet {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]int8, n)
	day := make([]int32, n)
	sn := make([]string, n)
	for i := range day {
		x[i] = float64(i)
		day[i] = int32(lo + r.Intn(span))
		sn[i] = fmt.Sprintf("s%d", i%5)
	}
	set, err := ml.NewSampleSet(1, x, y, day, sn)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSortedByDayMatchesStableSort pins the counting sort to a
// sort.SliceStable oracle: duplicate and negative days, single-day and
// wide (fallback) spans, full views, shuffled row subsets and empty
// selections.
func TestSortedByDayMatchesStableSort(t *testing.T) {
	cases := []struct {
		n, lo, span int
	}{
		{1, 0, 1},
		{50, 0, 1},            // every day equal
		{300, 0, 20},          // heavy duplicates
		{300, -40, 60},        // negative days
		{200, 1000, 400},      // offset window
		{40, -1 << 20, 1e6},   // span far wider than the rows: fallback
		{500, 0, 16 * 500},    // exactly at the fallback bound
		{500, -7, 16*500 + 1}, // just past it
	}
	for ci, c := range cases {
		set := daySet(t, c.n, c.lo, c.span, int64(ci+1))
		r := rand.New(rand.NewSource(int64(ci + 100)))
		views := map[string]ml.View{"all": set.All()}
		perm := r.Perm(c.n)
		sub := make([]int32, 0, c.n)
		for _, p := range perm[:c.n/2+1] {
			sub = append(sub, int32(p))
		}
		views["subset"] = set.All().WithRows(sub)
		views["empty"] = set.All().WithRows([]int32{})
		for name, v := range views {
			got := SortedByDay(v)
			want := sortedByDayOracle(v)
			if got == nil || len(got) != len(want) {
				t.Fatalf("case %d %s: %d rows (nil=%v), want %d", ci, name, len(got), got == nil, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d %s: position %d is row %d, want %d", ci, name, i, got[i], want[i])
				}
			}
		}
	}
}
