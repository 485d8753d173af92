package features

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// BuildSeqSampleSetFrame is BuildSeqSampleSet over a prepared frame's
// identity plan, the form the sequence suites build through.
func BuildSeqSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, seqLen int, opts BuildOptions) (*ml.SampleSet, error) {
	return BuildSeqSampleSet(dataset.IdentityPlan(f), labels, e, seqLen, opts)
}

// raggedFixture builds a labelled dataset whose drives differ in
// length (4 to 24 records) and observe days with gaps, switch among
// registry-unknown firmware versions mid-series, and carry cumulating
// W/B counters — the shapes the sequence windows must survive.
func raggedFixture(t *testing.T, drives int) (*dataset.Dataset, labeling.Labels) {
	t.Helper()
	d := dataset.New()
	labels := labeling.Labels{}
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("R%03d", dr)
		n := 4 + (dr*7)%21
		day := dr % 3
		for k := 0; k < n; k++ {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day,
				Firmware: firmware.Version(fmt.Sprintf("FW%d", (dr+k/5)%4)),
				WCounts:  winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(dr*1000+day))
			r.Smart.Set(smartattr.MediaErrors, float64(k*dr%7))
			r.WCounts.Add(winevent.PagingError, float64(k+dr%2))
			r.BCounts[k%len(r.BCounts)] = float64(k)
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
			day += 1 + (k*dr)%3 // gaps of 0–2 missing days
		}
		if dr%2 == 0 {
			labels[sn] = labeling.Label{SerialNumber: sn, FailDay: day - 1 - dr%4}
		}
	}
	return d, labels
}

// TestBuildSeqSampleSetFrameMatchesRecordPath pins the frame sequence
// builder to the record oracle BuildSeqSamples(f.ToDataset()): arena
// values by Float64bits, labels, days, serial numbers and row order,
// for window lengths of one row, three rows and longer than the
// shortest drives, with and without faulty-drive negatives, at one
// and three workers.
func TestBuildSeqSampleSetFrameMatchesRecordPath(t *testing.T) {
	d, labels := raggedFixture(t, 17)
	f := frameOf(t, d)
	for _, seqLen := range []int{1, 3, 9} {
		for _, negFromFaulty := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("seqLen=%d negFromFaulty=%v workers=%d", seqLen, negFromFaulty, workers)
				opts := DefaultBuildOptions()
				opts.PositiveWindowDays = 4
				opts.ExclusionDays = 2
				opts.NegativeFromFaulty = negFromFaulty
				opts.Workers = workers
				recExt, err := NewExtractor(GroupSFWB, nil)
				if err != nil {
					t.Fatal(err)
				}
				samples, err := BuildSeqSamples(f.ToDataset(), labels, recExt, seqLen, opts)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				want, err := ml.FromSamples(samples)
				if err != nil {
					t.Fatal(err)
				}
				frameExt, err := NewExtractor(GroupSFWB, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildSeqSampleSetFrame(f, labels, frameExt, seqLen, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				t.Run(name, func(t *testing.T) { requireSetsEqualBits(t, want, got) })
			}
		}
	}
}

// TestBuildSeqSampleSetFrameValidation checks the argument errors and
// the empty result of windows longer than every drive.
func TestBuildSeqSampleSetFrameValidation(t *testing.T) {
	d, labels, e := buildFixture(t)
	f := frameOf(t, d)
	opts := DefaultBuildOptions()
	if _, err := BuildSeqSampleSetFrame(f, labels, e, 0, opts); err == nil {
		t.Fatal("seqLen 0 accepted")
	}
	if _, err := BuildSeqSampleSetFrame(f, labels, e, 3, BuildOptions{}); err == nil {
		t.Fatal("zero positive window accepted")
	}
	if _, err := BuildSeqSampleSetFrame(f, labels, e, 22, opts); err == nil || !strings.Contains(err.Error(), "no sequence samples") {
		t.Fatalf("windows longer than every drive: err = %v", err)
	}
}

// tieFixture builds faulty drives around a day-20 failure whose
// records straddle the day-15 probe target in every way the nearest-row
// rule distinguishes: an exact hit, a tie at ±1 day (earlier wins),
// a nearer later row, rows only beyond the tolerance, and a series
// starting after the target.
func tieFixture(t *testing.T) (*dataset.Dataset, labeling.Labels) {
	t.Helper()
	d := dataset.New()
	labels := labeling.Labels{}
	layouts := map[string][]int{
		"exact":  {10, 13, 15, 18, 20},
		"tie":    {10, 14, 16, 20},
		"later":  {10, 13, 16, 20},
		"far":    {10, 12, 18, 20},
		"late":   {17, 18, 20},
		"tie2":   {11, 14, 16, 19},
		"early":  {2, 5, 8},
		"health": {14, 15, 16},
	}
	names := make([]string, 0, len(layouts))
	for sn := range layouts {
		names = append(names, sn)
	}
	sort.Strings(names)
	for i, sn := range names {
		for _, day := range layouts[sn] {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day,
				Firmware: firmware.Version(fmt.Sprintf("FW%d", (i+day)%3)),
				WCounts:  winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(100*i+day))
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if sn != "health" {
			labels[sn] = labeling.Label{SerialNumber: sn, FailDay: 20}
		}
	}
	return d, labels
}

// TestPositiveSamplesAtDeterministic requires repeated calls to return
// identical probes in frame drive order, and their multiset to equal
// the record oracle's — ties at ±tolerance included.
func TestPositiveSamplesAtDeterministic(t *testing.T) {
	d, labels := tieFixture(t)
	f := frameOf(t, d)
	e, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.PrimeFrame(f)
	a := PositiveSamplesAt(f, labels, e, 5, 1)
	b := PositiveSamplesAt(f, labels, e, 5, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two calls returned different probes")
	}
	last := -1
	for _, s := range a {
		i, ok := f.DriveIndex(s.SN)
		if !ok || i <= last {
			t.Fatalf("probe of %s out of frame drive order", s.SN)
		}
		last = i
	}
	// exact → 15, tie → 14 (earlier wins), later → 16, tie2 → 14;
	// far, late and early have no row within ±1 day of day 15.
	wantDays := map[string]int{"exact": 15, "later": 16, "tie": 14, "tie2": 14}
	if len(a) != len(wantDays) {
		t.Fatalf("%d probes, want %d", len(a), len(wantDays))
	}
	for _, s := range a {
		if s.Day != wantDays[s.SN] || s.Y != 1 {
			t.Fatalf("probe %s: day %d y %d, want day %d", s.SN, s.Day, s.Y, wantDays[s.SN])
		}
	}

	recExt, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	recExt.prime(d)
	want := positiveSamplesAtRef(d, labels, recExt, 5, 1)
	bySN := func(s []ml.Sample) []ml.Sample {
		out := append([]ml.Sample(nil), s...)
		sort.Slice(out, func(i, j int) bool { return out[i].SN < out[j].SN })
		return out
	}
	got, ref := bySN(a), bySN(want)
	if len(got) != len(ref) {
		t.Fatalf("%d probes, oracle %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].SN != ref[i].SN || got[i].Day != ref[i].Day || got[i].Y != ref[i].Y || len(got[i].X) != len(ref[i].X) {
			t.Fatalf("probe %d: %s day %d, oracle %s day %d", i, got[i].SN, got[i].Day, ref[i].SN, ref[i].Day)
		}
		for j := range ref[i].X {
			if math.Float64bits(got[i].X[j]) != math.Float64bits(ref[i].X[j]) {
				t.Fatalf("probe %s feature %d: %v, oracle %v", ref[i].SN, j, got[i].X[j], ref[i].X[j])
			}
		}
	}
}
