package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

func setSamples(n, width int, seed int64) []Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := make([]float64, width)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		out[i] = Sample{X: x, Y: r.Intn(2), Day: r.Intn(60), SN: fmt.Sprintf("sn%02d", i%9)}
	}
	return out
}

func TestFromSamplesRoundTrip(t *testing.T) {
	samples := setSamples(57, 4, 1)
	set, err := FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(samples) || set.Width() != 4 {
		t.Fatalf("set is %d×%d, want %d×4", set.Len(), set.Width(), len(samples))
	}
	for i := range samples {
		if set.Y(i) != samples[i].Y || set.Day(i) != samples[i].Day || set.SN(i) != samples[i].SN {
			t.Fatalf("row %d metadata mismatch: %d/%d/%s vs %+v", i, set.Y(i), set.Day(i), set.SN(i), samples[i])
		}
		for j := range samples[i].X {
			if got := set.Row(i)[j]; got != samples[i].X[j] {
				t.Fatalf("row %d feature %d: %v, want %v", i, j, got, samples[i].X[j])
			}
		}
	}
}

func TestNewSampleSetValidates(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if _, err := NewSampleSet(0, x, []int8{0, 0}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := NewSampleSet(2, x, nil, nil, nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSampleSet(2, x[:3], []int8{0, 0}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("short arena accepted")
	}
	if _, err := NewSampleSet(2, x, []int8{0, 2}, []int32{1, 2}, []string{"a", "b"}); err == nil {
		t.Fatal("label 2 accepted")
	}
	if _, err := NewSampleSet(2, x, []int8{0, 0}, []int32{1}, []string{"a", "b"}); err == nil {
		t.Fatal("short day column accepted")
	}
}

// TestRowIsCapped asserts appending to one row's vector cannot clobber
// the next row in the shared arena.
func TestRowIsCapped(t *testing.T) {
	set, err := FromSamples(setSamples(5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	r0 := set.Row(0)
	if cap(r0) != set.Width() {
		t.Fatalf("row cap %d, want %d", cap(r0), set.Width())
	}
	next := set.Row(1)[0]
	_ = append(r0, 999)
	if set.Row(1)[0] != next {
		t.Fatal("append to row 0 clobbered row 1")
	}
}

func TestViewRowsAndCols(t *testing.T) {
	samples := setSamples(20, 4, 3)
	set, err := FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	v := set.All().WithRows([]int32{7, 2, 11})
	if v.Len() != 3 || v.Width() != 4 {
		t.Fatalf("view is %d×%d, want 3×4", v.Len(), v.Width())
	}
	for i, r := range []int{7, 2, 11} {
		if v.Y(i) != samples[r].Y || v.Day(i) != samples[r].Day || v.SN(i) != samples[r].SN {
			t.Fatalf("position %d does not select arena row %d", i, r)
		}
	}

	// Column sub-views keep full-width Row access (trees index features
	// globally) and the row selection.
	cv := v.WithCols([]int{3, 1})
	if cv.Width() != 2 || cv.Len() != 3 {
		t.Fatalf("column view is %d×%d, want 3×2", cv.Len(), cv.Width())
	}
	if c := cv.Cols(); len(c) != 2 || c[0] != 3 || c[1] != 1 {
		t.Fatalf("column view Cols = %v, want [3 1]", c)
	}
	if len(cv.Row(0)) != 4 || cv.Row(0)[3] != samples[7].X[3] {
		t.Fatalf("column view Row is masked; want full-width arena row")
	}
}

// TestXsAliasesArena asserts batch-scoring headers point into the
// arena rather than copying feature data.
func TestXsAliasesArena(t *testing.T) {
	set, err := FromSamples(setSamples(6, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	xs := set.All().WithRows([]int32{4, 1}).Xs()
	if &xs[0][0] != &set.Arena()[4*3] || &xs[1][0] != &set.Arena()[1*3] {
		t.Fatal("Xs copied feature data instead of aliasing the arena")
	}
}

func TestValidateView(t *testing.T) {
	if err := ValidateView(View{}, false); err == nil {
		t.Fatal("zero view accepted")
	}
	onlyNeg := []Sample{{X: []float64{1}, Y: 0}, {X: []float64{2}, Y: 0}}
	set, err := FromSamples(onlyNeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateView(set.All(), false); err != nil {
		t.Fatalf("single-class view rejected without requireBothClasses: %v", err)
	}
	if err := ValidateView(set.All(), true); err == nil {
		t.Fatal("single-class view accepted with requireBothClasses")
	}
	if err := ValidateView(set.All().WithRows([]int32{}), false); err == nil {
		t.Fatal("empty row selection accepted")
	}
}
