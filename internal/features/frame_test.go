package features

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
)

// buildSampleSetRef is the record-form sample build, kept as the oracle
// BuildSampleSetFrame is pinned against: it labels and extracts each
// DriveSeries record through Extractor.ExtractInto.
func buildSampleSetRef(data *dataset.Dataset, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	e.prime(data)
	width := e.Width()
	var x []float64
	var y []int8
	var day []int32
	var sn []string
	data.Each(func(s *dataset.DriveSeries) {
		label, faulty := labels[s.SerialNumber]
		for k := range s.Records {
			r := &s.Records[k]
			yk, keep := rowLabel(faulty, label.FailDay, r.Day, &opts)
			if !keep {
				continue
			}
			x = e.ExtractInto(r, x)
			y = append(y, yk)
			day = append(day, int32(r.Day))
			sn = append(sn, s.SerialNumber)
		}
	})
	return ml.NewSampleSet(width, x, y, day, sn)
}

// frameOf converts a test dataset to a frame, failing on error.
func frameOf(t *testing.T, d *dataset.Dataset) *dataset.Frame {
	t.Helper()
	f, err := dataset.FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// requireSetsEqualBits asserts two sample sets agree exactly, down to
// the bit pattern of every feature value.
func requireSetsEqualBits(t *testing.T, want, got *ml.SampleSet) {
	t.Helper()
	if want.Len() != got.Len() || want.Width() != got.Width() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Len(), got.Width(), want.Len(), want.Width())
	}
	wx, gx := want.Arena(), got.Arena()
	for i := range wx {
		if math.Float64bits(wx[i]) != math.Float64bits(gx[i]) {
			t.Fatalf("arena[%d]: %x, want %x (row %d col %d)",
				i, math.Float64bits(gx[i]), math.Float64bits(wx[i]), i/want.Width(), i%want.Width())
		}
	}
	for i := 0; i < want.Len(); i++ {
		if want.Y(i) != got.Y(i) || want.Day(i) != got.Day(i) || want.SN(i) != got.SN(i) {
			t.Fatalf("row %d: y/day/sn = %d/%d/%s, want %d/%d/%s",
				i, got.Y(i), got.Day(i), got.SN(i), want.Y(i), want.Day(i), want.SN(i))
		}
	}
}

// TestBuildSampleSetFrameMatchesRecordPath pins the frame extractor to
// the record path for every feature group, including the first-seen
// firmware encoding that priming fixes in dataset order.
func TestBuildSampleSetFrameMatchesRecordPath(t *testing.T) {
	d, labels, _ := fleetFixture(t, 25)
	f := frameOf(t, d)
	opts := DefaultBuildOptions()
	for _, g := range AllGroups() {
		recExt, err := NewExtractor(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildSampleSetRef(d, labels, recExt, opts)
		if err != nil {
			t.Fatal(err)
		}
		frameExt, err := NewExtractor(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildSampleSetFrame(f, labels, frameExt, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSetsEqualBits(t, want, got)
	}
}

// TestBuildSampleSetFrameWorkersIdentical asserts the counted two-pass
// frame extraction is worker-count independent.
func TestBuildSampleSetFrameWorkersIdentical(t *testing.T) {
	d, labels, _ := fleetFixture(t, 30)
	f := frameOf(t, d)
	opts := DefaultBuildOptions()
	opts.Workers = 1
	serialExt, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildSampleSetFrame(f, labels, serialExt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 8} {
		e, err := NewExtractor(GroupSFWB, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = w
		got, err := BuildSampleSetFrame(f, labels, e, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireSetsEqualBits(t, want, got)
	}
}
