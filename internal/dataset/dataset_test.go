package dataset

import (
	"sort"
	"testing"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// rec builds a minimal valid record for drive sn on day.
func rec(sn string, day int) Record {
	r := Record{
		SerialNumber: sn,
		Vendor:       "I",
		Model:        "M",
		Day:          day,
		Firmware:     "FW1",
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
	}
	r.Smart.Set(smartattr.PowerOnHours, float64(day*8))
	return r
}

func mustAppend(t *testing.T, d *Dataset, r Record) {
	t.Helper()
	if err := d.Append(r); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeepsDayOrder(t *testing.T) {
	d := New()
	for _, day := range []int{5, 1, 3, 2, 4} {
		mustAppend(t, d, rec("A", day))
	}
	s, ok := d.Series("A")
	if !ok {
		t.Fatal("series missing")
	}
	for i := range s.Records {
		if s.Records[i].Day != i+1 {
			t.Fatalf("record %d is day %d, want %d", i, s.Records[i].Day, i+1)
		}
	}
}

func TestAppendReplacesSameDay(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 3))
	r2 := rec("A", 3)
	r2.Smart.Set(smartattr.MediaErrors, 9)
	mustAppend(t, d, r2)
	s, _ := d.Series("A")
	if len(s.Records) != 1 {
		t.Fatalf("len = %d, want 1 after same-day replace", len(s.Records))
	}
	if got := s.Records[0].Smart.Get(smartattr.MediaErrors); got != 9 {
		t.Fatalf("replacement not applied: %g", got)
	}
}

func TestAppendRejectsIdentityChange(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 1))
	bad := rec("A", 2)
	bad.Vendor = "II"
	if err := d.Append(bad); err == nil {
		t.Fatal("vendor change should be rejected")
	}
}

func TestAppendValidates(t *testing.T) {
	d := New()
	bad := rec("", 1)
	if err := d.Append(bad); err == nil {
		t.Fatal("empty SN should be rejected")
	}
	bad2 := rec("A", -1)
	if err := d.Append(bad2); err == nil {
		t.Fatal("negative day should be rejected")
	}
	bad3 := rec("A", 1)
	bad3.WCounts = bad3.WCounts[:2]
	if err := d.Append(bad3); err == nil {
		t.Fatal("short W vector should be rejected")
	}
}

func TestSeriesQueries(t *testing.T) {
	d := New()
	for _, day := range []int{2, 5, 9} {
		mustAppend(t, d, rec("A", day))
	}
	s, _ := d.Series("A")
	if s.MaxGap() != 4 {
		t.Fatalf("MaxGap = %d, want 4", s.MaxGap())
	}
}

func TestDatasetAccounting(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 1))
	mustAppend(t, d, rec("A", 2))
	mustAppend(t, d, rec("B", 1))
	if d.Drives() != 2 || d.Len() != 3 {
		t.Fatalf("Drives/Len = %d/%d", d.Drives(), d.Len())
	}
	if got := d.SerialNumbers(); len(got) != 2 || got[0] != "A" {
		t.Fatalf("SerialNumbers = %v", got)
	}
}

func TestFilterShares(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 1))
	b := rec("B", 1)
	b.Vendor = "II"
	mustAppend(t, d, b)
	f := frameOf(t, d)
	only := f.FilterVendor("I")
	if only.Drives() != 1 || only.Len() != 1 {
		t.Fatalf("filtered frame: %d drives, %d rows", only.Drives(), only.Len())
	}
	if _, ok := only.DriveIndex("B"); ok {
		t.Fatal("vendor II drive leaked through filter")
	}
	if &only.smart[0] != &f.smart[0] || &only.w[0] != &f.w[0] || &only.day[0] != &f.day[0] {
		t.Fatal("FilterVendor copied the columns instead of sharing them")
	}
}

// Clone returns a deep copy of the series.
func (s *DriveSeries) Clone() *DriveSeries {
	c := &DriveSeries{SerialNumber: s.SerialNumber, Vendor: s.Vendor, Model: s.Model}
	c.Records = make([]Record, len(s.Records))
	for i := range s.Records {
		c.Records[i] = s.Records[i].Clone()
	}
	return c
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	out := New()
	out.cumulated = d.cumulated
	for _, sn := range d.order {
		out.bySN[sn] = d.bySN[sn].Clone()
		out.order = append(out.order, sn)
	}
	return out
}

// Vendors returns the distinct vendor names present, sorted.
func (d *Dataset) Vendors() []string {
	set := make(map[string]bool)
	for _, s := range d.bySN {
		set[s.Vendor] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func TestCloneIsDeep(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 1))
	c := d.Clone()
	s, _ := c.Series("A")
	s.Records[0].WCounts[0] = 99
	orig, _ := d.Series("A")
	if orig.Records[0].WCounts[0] == 99 {
		t.Fatal("Clone shares count vectors with the original")
	}
}

func TestVendors(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("A", 1))
	b := rec("B", 1)
	b.Vendor = "II"
	mustAppend(t, d, b)
	got := d.Vendors()
	if len(got) != 2 || got[0] != "I" || got[1] != "II" {
		t.Fatalf("Vendors = %v", got)
	}
}

func TestEachOrder(t *testing.T) {
	d := New()
	mustAppend(t, d, rec("B", 1))
	mustAppend(t, d, rec("A", 1))
	var order []string
	d.Each(func(s *DriveSeries) { order = append(order, s.SerialNumber) })
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("Each order = %v, want insertion order", order)
	}
}

// TestUntil pins Frame.Until on random fleets, raw and cumulated: a
// cut before, inside, or after the observed day range keeps exactly
// the records with Day ≤ day, omits drives left empty, carries the
// cumulated marker, shares the parent's columns, and leaves the
// parent untouched.
func TestUntil(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		d := randomDataset(seed, 20)
		if seed%2 == 1 {
			cumulateRef(d)
		}
		f := frameOf(t, d)
		lo, hi := int(f.Day(0)), int(f.Day(0))
		for r := 0; r < f.Len(); r++ {
			lo, hi = min(lo, int(f.Day(r))), max(hi, int(f.Day(r)))
		}
		for _, day := range []int{lo - 1, lo, (lo + hi) / 2, hi - 1, hi, hi + 5} {
			cut := f.Until(day)
			want := subset(d, func(r *Record) bool { return r.Day <= day })
			if cut.Drives() != want.Drives() || cut.Len() != want.Len() {
				t.Fatalf("seed %d until %d: %d drives/%d rows, want %d/%d",
					seed, day, cut.Drives(), cut.Len(), want.Drives(), want.Len())
			}
			requireDatasetsEqualBits(t, want, cut.ToDataset())
			if &cut.smart[0] != &f.smart[0] || &cut.b[0] != &f.b[0] || &cut.fw[0] != &f.fw[0] {
				t.Fatalf("seed %d until %d: columns copied instead of shared", seed, day)
			}
		}
		requireDatasetsEqualBits(t, d, f.ToDataset())
	}
}
