package ml

import "fmt"

// SampleSet is the columnar in-memory sample representation: one flat
// row-major float64 arena plus parallel label/day/serial columns. It
// is built once per prepared fleet (features.BuildSampleSetFrame fills the
// arena with no per-row allocations) and then shared read-only by
// every downstream consumer — splits, under-sampling, CV folds, grid
// search, and feature selection all operate on Views (int32 row-index
// slices) instead of copying sample data per candidate.
//
// A SampleSet is immutable after construction and safe for concurrent
// readers. It carries no derived state: a trainer that needs binned
// features bins the rows of the view it trains on, so nothing computed
// from one view's rows can reach another's model.
type SampleSet struct {
	width int
	x     []float64 // len = rows*width, row-major
	y     []int8    // 0 or 1
	day   []int32
	sn    []string
}

// NewSampleSet assembles a set from pre-filled parallel columns. The
// arena x must hold len(y)*width values row-major; labels must be 0/1.
// The slices are retained (not copied) and must not be mutated after.
func NewSampleSet(width int, x []float64, y []int8, day []int32, sn []string) (*SampleSet, error) {
	if width <= 0 {
		return nil, fmt.Errorf("ml: sample set width %d must be > 0", width)
	}
	rows := len(y)
	if rows == 0 {
		return nil, fmt.Errorf("ml: empty sample set")
	}
	if len(x) != rows*width {
		return nil, fmt.Errorf("ml: arena holds %d values, want %d rows × %d", len(x), rows, width)
	}
	if len(day) != rows || len(sn) != rows {
		return nil, fmt.Errorf("ml: column lengths %d/%d/%d disagree", rows, len(day), len(sn))
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("ml: sample %d has label %d, want 0 or 1", i, v)
		}
	}
	return &SampleSet{width: width, x: x, y: y, day: day, sn: sn}, nil
}

// FromSamples copies a []Sample slice into columnar form, row for row.
// Tests use it to build sets from hand-made samples; the samples must
// be non-empty, share one non-zero width, and carry 0/1 labels.
func FromSamples(samples []Sample) (*SampleSet, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("ml: empty sample set")
	}
	width := len(samples[0].X)
	x := make([]float64, 0, len(samples)*width)
	y := make([]int8, len(samples))
	day := make([]int32, len(samples))
	sn := make([]string, len(samples))
	for i := range samples {
		if len(samples[i].X) != width {
			return nil, fmt.Errorf("ml: sample %d has width %d, want %d", i, len(samples[i].X), width)
		}
		if y := samples[i].Y; y != 0 && y != 1 {
			return nil, fmt.Errorf("ml: sample %d has label %d, want 0 or 1", i, y)
		}
		x = append(x, samples[i].X...)
		y[i] = int8(samples[i].Y)
		day[i] = int32(samples[i].Day)
		sn[i] = samples[i].SN
	}
	return NewSampleSet(width, x, y, day, sn)
}

// Len returns the number of rows.
func (s *SampleSet) Len() int { return len(s.y) }

// Width returns the feature vector length.
func (s *SampleSet) Width() int { return s.width }

// Arena returns the shared row-major feature arena. Read-only.
func (s *SampleSet) Arena() []float64 { return s.x }

// Row returns row i's feature vector: a capped subslice of the arena
// (appending to it cannot clobber the next row). Read-only.
func (s *SampleSet) Row(i int) []float64 {
	return s.x[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// Y returns row i's label.
func (s *SampleSet) Y(i int) int { return int(s.y[i]) }

// Day returns row i's observation day.
func (s *SampleSet) Day(i int) int { return int(s.day[i]) }

// SN returns row i's drive serial number.
func (s *SampleSet) SN(i int) string { return s.sn[i] }

// All returns the view over every row and feature.
func (s *SampleSet) All() View { return View{set: s} }

// View is a zero-copy selection of a SampleSet: a row-index slice
// (nil = all rows, in arena order) and an optional feature-column
// subset (nil = all features). Views are values — cheap to pass and
// slice — and never copy feature data; the sampling package's split,
// under-sample, and CV primitives all produce Views, so every search
// candidate shares one arena. A View must not contain duplicate rows,
// except one that is only scored: ScoreView scores every occurrence.
type View struct {
	set  *SampleSet
	rows []int32
	cols []int
}

// Set returns the underlying SampleSet.
func (v View) Set() *SampleSet { return v.set }

// Len returns the number of selected rows.
func (v View) Len() int {
	if v.rows == nil {
		return v.set.Len()
	}
	return len(v.rows)
}

// Width returns the selected feature count.
func (v View) Width() int {
	if v.cols == nil {
		return v.set.Width()
	}
	return len(v.cols)
}

// Cols returns the feature-column subset (nil = all). Read-only.
func (v View) Cols() []int { return v.cols }

// RowIndex maps view position i to its arena row.
func (v View) RowIndex(i int) int32 {
	if v.rows == nil {
		return int32(i)
	}
	return v.rows[i]
}

// Row returns position i's full-width feature vector straight from the
// arena. Column subsets are not applied — consumers that honour Cols
// (the tree ensembles' binning) index it by global feature id.
func (v View) Row(i int) []float64 { return v.set.Row(int(v.RowIndex(i))) }

// Y returns position i's label.
func (v View) Y(i int) int { return v.set.Y(int(v.RowIndex(i))) }

// Day returns position i's observation day.
func (v View) Day(i int) int { return v.set.Day(int(v.RowIndex(i))) }

// SN returns position i's drive serial number.
func (v View) SN(i int) string { return v.set.SN(int(v.RowIndex(i))) }

// Indices returns a fresh copy of the selected arena rows, in view
// order.
func (v View) Indices() []int32 {
	out := make([]int32, v.Len())
	for i := range out {
		out[i] = v.RowIndex(i)
	}
	return out
}

// InArenaOrder returns the view with its rows in ascending arena
// order, plus pos, where pos[k] is the original view position of the
// returned view's row k. Repeated rows keep their view order. When the
// view is already ascending (the all-rows view included) it returns v
// itself and a nil pos. The reordering is a counting sort over the
// set's rows: O(view + set rows) time, and one int32 per arena row of
// scratch besides the two O(view) results.
func (v View) InArenaOrder() (View, []int32) {
	rows := v.rows
	ascending := true
	for i := 1; i < len(rows); i++ {
		if rows[i] < rows[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return v, nil
	}
	// next[r] is the output slot of arena row r's next occurrence.
	next := make([]int32, v.set.Len()+1)
	for _, r := range rows {
		next[r+1]++
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	sorted := make([]int32, len(rows))
	pos := make([]int32, len(rows))
	for p, r := range rows {
		k := next[r]
		next[r]++
		sorted[k] = r
		pos[k] = int32(p)
	}
	return v.WithRows(sorted), pos
}

// WithRows returns a view over the given arena rows (view order =
// slice order), keeping the column subset. The slice is retained.
func (v View) WithRows(rows []int32) View { return View{set: v.set, rows: rows, cols: v.cols} }

// WithCols returns a view restricted to the feature columns in keep,
// keeping the row selection. The slice is retained.
func (v View) WithCols(keep []int) View { return View{set: v.set, rows: v.rows, cols: keep} }

// ClassCounts returns the number of negative and positive rows.
func (v View) ClassCounts() (neg, pos int) {
	n := v.Len()
	for i := 0; i < n; i++ {
		if v.Y(i) == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// MaxDay returns the latest observation day in the view (0 if empty).
func (v View) MaxDay() int {
	last := 0
	n := v.Len()
	for i := 0; i < n; i++ {
		if d := v.Day(i); d > last {
			last = d
		}
	}
	return last
}

// Xs returns the selected rows as full-width vector headers into the
// arena — one pointer-slice allocation, no feature copies. It is the
// batch-scoring adapter; column subsets are not applied.
func (v View) Xs() [][]float64 {
	out := make([][]float64, v.Len())
	for i := range out {
		out[i] = v.Row(i)
	}
	return out
}

// ValidateView checks that a view forms a usable training set:
// non-empty and, when requireBothClasses is set, holding at least one
// row of each class (the arena representation makes width and label
// checks structural).
func ValidateView(v View, requireBothClasses bool) error {
	if v.Set() == nil || v.Len() == 0 {
		return fmt.Errorf("ml: empty sample view")
	}
	if requireBothClasses {
		neg, pos := v.ClassCounts()
		if pos == 0 || neg == 0 {
			return fmt.Errorf("ml: need both classes, have %d positive and %d negative", pos, neg)
		}
	}
	return nil
}
