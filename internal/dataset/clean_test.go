package dataset

import (
	"testing"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func buildSet(t *testing.T, days map[string][]int) *Dataset {
	t.Helper()
	d := New()
	for sn, list := range days {
		for _, day := range list {
			r := rec(sn, day)
			r.WCounts[0] = 1 // one W_7 per observed day, for cumulate checks
			mustAppend(t, d, r)
		}
	}
	return d
}

func TestGapPolicyValidate(t *testing.T) {
	if err := DefaultGapPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GapPolicy{
		{DropGap: 1, FillGap: 0},
		{DropGap: 10, FillGap: 0},
		{DropGap: 5, FillGap: 6},
		{DropGap: 5, FillGap: 5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v should be invalid", p)
		}
	}
}

// cleanRef is the record-form discontinuity optimisation, kept as the
// oracle PreparePipeline's fused clean stage is pinned against: drives
// with a gap ≥ DropGap are removed, gaps of 2..FillGap days are filled
// with Interpolated records carrying the mean of the two adjacent
// observations and the earlier record's firmware.
func cleanRef(d *Dataset, policy GapPolicy) (*Dataset, CleanStats) {
	stats := CleanStats{DrivesIn: d.Drives(), RecordsIn: d.Len()}
	out := New()
	out.cumulated = d.cumulated
	d.Each(func(s *DriveSeries) {
		if s.MaxGap() >= policy.DropGap {
			stats.DrivesDropped++
			return
		}
		c := &DriveSeries{SerialNumber: s.SerialNumber, Vendor: s.Vendor, Model: s.Model}
		for i := range s.Records {
			if i > 0 {
				prev, cur := &s.Records[i-1], &s.Records[i]
				if gap := cur.Day - prev.Day; gap >= 2 && gap <= policy.FillGap {
					for day := prev.Day + 1; day < cur.Day; day++ {
						c.Records = append(c.Records, meanRecordRef(prev, cur, day))
						stats.RecordsFilled++
					}
				}
			}
			c.Records = append(c.Records, s.Records[i].Clone())
		}
		out.bySN[c.SerialNumber] = c
		out.order = append(out.order, c.SerialNumber)
	})
	return out, stats
}

// meanRecordRef synthesises the fill record for day between a and b.
func meanRecordRef(a, b *Record, day int) Record {
	r := Record{
		SerialNumber: a.SerialNumber,
		Vendor:       a.Vendor,
		Model:        a.Model,
		Day:          day,
		Firmware:     a.Firmware,
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
		Interpolated: true,
	}
	for i := range r.Smart {
		r.Smart[i] = (a.Smart[i] + b.Smart[i]) / 2
	}
	for i := range r.WCounts {
		r.WCounts[i] = (a.WCounts[i] + b.WCounts[i]) / 2
	}
	for i := range r.BCounts {
		r.BCounts[i] = (a.BCounts[i] + b.BCounts[i]) / 2
	}
	return r
}

// cumulateRef is the record-form cumulative W/B transform, in place:
// the oracle of PreparePipeline's cumulate stage.
func cumulateRef(d *Dataset) {
	d.Each(func(s *DriveSeries) {
		for i := 1; i < len(s.Records); i++ {
			prev, cur := &s.Records[i-1], &s.Records[i]
			for j := range cur.WCounts {
				cur.WCounts[j] += prev.WCounts[j]
			}
			for j := range cur.BCounts {
				cur.BCounts[j] += prev.BCounts[j]
			}
		}
	})
	d.cumulated = true
}

// frameOf converts a test dataset to a frame, failing on error.
func frameOf(t *testing.T, d *Dataset) *Frame {
	t.Helper()
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// prepare runs PreparePipeline on d's frame and returns the result in
// record form.
func prepare(t *testing.T, d *Dataset, opts PipelineOptions) (*Dataset, CleanStats) {
	t.Helper()
	out, stats, err := PreparePipeline(frameOf(t, d), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out.ToDataset(), stats
}

// clean runs only the clean stage of PreparePipeline.
func clean(t *testing.T, d *Dataset) (*Dataset, CleanStats) {
	t.Helper()
	return prepare(t, d, PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true})
}

// cumulate runs only the cumulate stage of PreparePipeline.
func cumulate(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	out, _ := prepare(t, d, PipelineOptions{SkipClean: true})
	return out
}

func TestCleanDropsLongGaps(t *testing.T) {
	d := buildSet(t, map[string][]int{
		"keep": {0, 1, 2, 3},
		"drop": {0, 1, 15}, // gap of 14 ≥ 10
	})
	out, stats := clean(t, d)
	if _, ok := out.Series("drop"); ok {
		t.Fatal("drive with ≥10 day gap survived")
	}
	if _, ok := out.Series("keep"); !ok {
		t.Fatal("continuous drive was dropped")
	}
	if stats.DrivesDropped != 1 || stats.DrivesIn != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCleanFillsShortGaps(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 3}}) // gap of 3 → fill days 1, 2
	out, stats := clean(t, d)
	s, _ := out.Series("A")
	if len(s.Records) != 4 {
		t.Fatalf("filled series has %d records, want 4", len(s.Records))
	}
	if stats.RecordsFilled != 2 {
		t.Fatalf("RecordsFilled = %d, want 2", stats.RecordsFilled)
	}
	for _, day := range []int{1, 2} {
		r, ok := s.At(day)
		if !ok {
			t.Fatalf("day %d not filled", day)
		}
		if !r.Interpolated {
			t.Errorf("day %d not marked interpolated", day)
		}
		// Mean of the adjacent PowerOnHours values (0*8 and 3*8).
		if got := r.Smart.Get(smartattr.PowerOnHours); got != 12 {
			t.Errorf("day %d PowerOnHours = %g, want mean 12", day, got)
		}
		if got := r.Firmware; got != "FW1" {
			t.Errorf("day %d firmware = %q, want carried FW1", day, got)
		}
	}
}

func TestCleanLeavesMediumGaps(t *testing.T) {
	// A gap of 5 is between FillGap (3) and DropGap (10): the drive
	// survives but keeps its hole.
	d := buildSet(t, map[string][]int{"A": {0, 5}})
	out, stats := clean(t, d)
	s, _ := out.Series("A")
	if len(s.Records) != 2 {
		t.Fatalf("records = %d, want 2 (no fill)", len(s.Records))
	}
	if stats.RecordsFilled != 0 || stats.DrivesDropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCleanDoesNotMutateInput(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 3}, "B": {0, 1, 2}})
	f := frameOf(t, d)
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy()}); err != nil {
		t.Fatal(err)
	}
	if f.Cumulated() {
		t.Fatal("PreparePipeline marked its input cumulated")
	}
	requireDatasetsEqualBits(t, d, f.ToDataset())
}

func TestCleanRejectsBadPolicy(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1}})
	if _, _, err := PreparePipeline(frameOf(t, d), PipelineOptions{Policy: GapPolicy{DropGap: 3, FillGap: 5}}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestCumulate(t *testing.T) {
	d := cumulate(t, buildSet(t, map[string][]int{"A": {0, 1, 2}}))
	s, _ := d.Series("A")
	want := []float64{1, 2, 3}
	for i, r := range s.Records {
		if got := r.WCounts.Get(winevent.BadBlock); got != want[i] {
			t.Errorf("record %d cumulative W_7 = %g, want %g", i, got, want[i])
		}
	}
}

func TestCumulateMonotone(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2, 3, 4, 5}})
	// Vary daily counts.
	raw, _ := d.Series("A")
	for i := range raw.Records {
		raw.Records[i].WCounts[1] = float64(i % 3)
		raw.Records[i].BCounts[0] = float64((i + 1) % 2)
	}
	s, _ := cumulate(t, d).Series("A")
	for i := 1; i < len(s.Records); i++ {
		for j := range s.Records[i].WCounts {
			if s.Records[i].WCounts[j] < s.Records[i-1].WCounts[j] {
				t.Fatalf("W counts not monotone at record %d", i)
			}
		}
		for j := range s.Records[i].BCounts {
			if s.Records[i].BCounts[j] < s.Records[i-1].BCounts[j] {
				t.Fatalf("B counts not monotone at record %d", i)
			}
		}
	}
}

func TestGapHistogram(t *testing.T) {
	d := buildSet(t, map[string][]int{
		"A": {0, 1, 3}, // gaps 1, 2
		"B": {0, 20},   // gap 20 → clamped to maxGap
		"C": {0, 1, 2}, // gaps 1, 1
	})
	hist := GapHistogram(d, 5)
	if hist[1] != 3 {
		t.Errorf("hist[1] = %d, want 3", hist[1])
	}
	if hist[2] != 1 {
		t.Errorf("hist[2] = %d, want 1", hist[2])
	}
	if hist[5] != 1 {
		t.Errorf("hist[5] (clamped) = %d, want 1", hist[5])
	}
}
