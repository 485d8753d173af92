package features

import (
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func TestGroupNames(t *testing.T) {
	cases := map[string]Group{
		"SFWB": GroupSFWB, "SFW": GroupSFW, "SFB": GroupSFB,
		"SF": GroupSF, "S": GroupS, "W": GroupW, "B": GroupB,
	}
	for want, g := range cases {
		if got := g.String(); got != want {
			t.Errorf("group %v renders %q, want %q", g, got, want)
		}
	}
	if got := (Group{}).String(); got != "∅" {
		t.Errorf("empty group renders %q", got)
	}
	if !(Group{}).Empty() || GroupS.Empty() {
		t.Error("Empty() misbehaves")
	}
	if len(AllGroups()) != 7 {
		t.Error("AllGroups should list the seven Table V groups")
	}
}

func testRegistry() map[string]*firmware.Registry {
	return map[string]*firmware.Registry{
		"I": firmware.MustNewRegistry("I", []firmware.Release{
			{Version: "FW1", Seq: 1, HazardMultiplier: 2, ShipShare: 0.5},
			{Version: "FW2", Seq: 2, HazardMultiplier: 1, ShipShare: 0.5},
		}),
	}
}

func testRecord() *dataset.Record {
	r := &dataset.Record{
		SerialNumber: "A",
		Vendor:       "I",
		Model:        "M",
		Day:          3,
		Firmware:     "FW2",
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
	}
	r.Smart.Set(smartattr.PowerOnHours, 1234)
	r.Smart.Set(smartattr.MediaErrors, 5)
	r.WCounts.Add(winevent.PagingError, 7)
	r.BCounts.Add(bsod.PageFaultInNonpagedArea, 2)
	r.BCounts.Add(bsod.NTFSFileSystem, 1)
	return r
}

func TestExtractorWidths(t *testing.T) {
	widths := map[string]int{
		"SFWB": 16 + 1 + 5 + 23,
		"SFW":  16 + 1 + 5,
		"SFB":  16 + 1 + 23,
		"SF":   17,
		"S":    16,
		"W":    5,
		"B":    23,
	}
	for _, g := range AllGroups() {
		e, err := NewExtractor(g, testRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Width(); got != widths[g.String()] {
			t.Errorf("group %s width = %d, want %d", g, got, widths[g.String()])
		}
		if len(e.Names()) != e.Width() {
			t.Errorf("group %s: %d names for width %d", g, len(e.Names()), e.Width())
		}
		if got := len(e.Extract(testRecord())); got != e.Width() {
			t.Errorf("group %s: extracted %d values", g, got)
		}
	}
}

func TestNewExtractorRejectsEmptyGroup(t *testing.T) {
	if _, err := NewExtractor(Group{}, nil); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestExtractValues(t *testing.T) {
	e, err := NewExtractor(GroupSFWB, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	x := e.Extract(testRecord())
	names := e.Names()
	at := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return x[i]
			}
		}
		t.Fatalf("feature %s missing", name)
		return 0
	}
	if got := at("S_12"); got != 1234 {
		t.Errorf("S_12 = %g, want 1234", got)
	}
	if got := at("S_14"); got != 5 {
		t.Errorf("S_14 = %g, want 5", got)
	}
	if got := at("F"); got != 2 {
		t.Errorf("F = %g, want release seq 2", got)
	}
	if got := at("W_51"); got != 7 {
		t.Errorf("W_51 = %g, want 7", got)
	}
	if got := at("B_50"); got != 2 {
		t.Errorf("B_50 = %g, want 2", got)
	}
	if got := at("B_total"); got != 3 {
		t.Errorf("B_total = %g, want 3", got)
	}
}

func TestExtractorUnknownVendorFallback(t *testing.T) {
	e, err := NewExtractor(GroupSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord()
	r.Vendor = "X"
	x := e.Extract(r)
	if x[16] != 1 {
		t.Fatalf("first-seen firmware code = %g, want 1", x[16])
	}
}

// buildFixture builds a small labelled dataset: one faulty drive (fails
// day 20) and one healthy drive, observed daily over days 0..20.
func buildFixture(t *testing.T) (*dataset.Dataset, labeling.Labels, *Extractor) {
	t.Helper()
	d := dataset.New()
	for _, sn := range []string{"faulty", "healthy"} {
		for day := 0; day <= 20; day++ {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day, Firmware: "FW1",
				WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(day))
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	labels := labeling.Labels{"faulty": {SerialNumber: "faulty", FailDay: 20}}
	e, err := NewExtractor(GroupS, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, labels, e
}

func TestBuildSamplesLabels(t *testing.T) {
	d, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
	set, err := BuildSampleSetFrame(frameOf(t, d), labels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg, guard int
	for i := 0; i < set.Len(); i++ {
		switch {
		case set.SN(i) == "healthy":
			if set.Y(i) != 0 {
				t.Fatal("healthy sample labelled positive")
			}
			neg++
		case set.Y(i) == 1:
			// Positive window: days 14..20.
			if set.Day(i) <= 13 {
				t.Fatalf("positive at day %d outside window", set.Day(i))
			}
			pos++
		default:
			guard++
		}
	}
	if pos != 7 {
		t.Fatalf("positives = %d, want 7", pos)
	}
	if neg != 21 {
		t.Fatalf("negatives = %d, want 21", neg)
	}
	// Guard band drops days 7..13; earlier days dropped too because
	// NegativeFromFaulty is false.
	if guard != 0 {
		t.Fatalf("faulty drive leaked %d unlabelled samples", guard)
	}
}

func TestBuildSamplesNegativeFromFaulty(t *testing.T) {
	d, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7, NegativeFromFaulty: true}
	set, err := BuildSampleSetFrame(frameOf(t, d), labels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldNeg := 0
	for i := 0; i < set.Len(); i++ {
		if set.SN(i) == "faulty" && set.Y(i) == 0 {
			// days 0..6 (guard band covers 7..13)
			if set.Day(i) > 6 {
				t.Fatalf("faulty negative at day %d inside guard band", set.Day(i))
			}
			oldNeg++
		}
	}
	if oldNeg != 7 {
		t.Fatalf("faulty negatives = %d, want 7", oldNeg)
	}
}

func TestBuildSamplesValidation(t *testing.T) {
	d, labels, e := buildFixture(t)
	if _, err := BuildSampleSetFrame(frameOf(t, d), labels, e, BuildOptions{}); err == nil {
		t.Fatal("zero positive window accepted")
	}
}

func TestBuildSeqSamplesShape(t *testing.T) {
	d, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
	const seqLen = 3
	set, err := BuildSeqSampleSetFrame(frameOf(t, d), labels, e, seqLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := seqLen * e.Width(); set.Width() != want {
		t.Fatalf("sequence width = %d, want %d", set.Width(), want)
	}
	// Time-major layout: the S_12 (PowerOnHours) of step t equals
	// day −(seqLen−1−t) relative to the end day.
	idx := smartattr.PowerOnHours.Index()
	for i := 0; i < set.Len(); i++ {
		x := set.Row(i)
		for step := 0; step < seqLen; step++ {
			wantHours := float64(set.Day(i) - (seqLen - 1 - step))
			if got := x[step*e.Width()+idx]; got != wantHours {
				t.Fatalf("day %d step %d hours = %g, want %g", set.Day(i), step, got, wantHours)
			}
		}
	}
}

func TestPositiveSamplesAt(t *testing.T) {
	d, labels, e := buildFixture(t)
	f := frameOf(t, d)
	// 5 days before the day-20 failure → day 15 record.
	pos := PositiveSamplesAt(f, labels, e, 5, 1)
	if len(pos) != 1 {
		t.Fatalf("probes = %d, want 1", len(pos))
	}
	if pos[0].Day != 15 || pos[0].Y != 1 {
		t.Fatalf("probe = %+v", pos[0])
	}
	// A lookahead beyond the telemetry start yields nothing.
	if got := PositiveSamplesAt(f, labels, e, 50, 1); len(got) != 0 {
		t.Fatalf("impossible lookahead produced %d probes", len(got))
	}
}

func TestParseGroup(t *testing.T) {
	for _, g := range AllGroups() {
		got, ok := ParseGroup(g.String())
		if !ok || got != g {
			t.Errorf("ParseGroup(%q) = %v, %v", g.String(), got, ok)
		}
	}
	if _, ok := ParseGroup("XYZ"); ok {
		t.Error("ParseGroup accepted garbage")
	}
}
