package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/winevent"
)

// randomDataset synthesises a fleet with irregular day coverage,
// negative zeros, fractional counts, and mid-life firmware changes —
// everything the bit-exactness comparisons need to be meaningful.
// (The dataset tests cannot import simfleet, which imports dataset.)
func randomDataset(seed int64, drives int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	vendors := []string{"I", "S", "T"}
	d := New()
	for dr := 0; dr < drives; dr++ {
		vendor := vendors[rng.Intn(len(vendors))]
		sn := fmt.Sprintf("%s-%04d", vendor, dr)
		fw := firmware.Version(fmt.Sprintf("FW%d", rng.Intn(3)))
		day := rng.Intn(3)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r := Record{
				SerialNumber: sn,
				Vendor:       vendor,
				Model:        "M" + vendor,
				Day:          day,
				Firmware:     fw,
				WCounts:      winevent.NewCounts(),
				BCounts:      bsod.NewCounts(),
			}
			for j := range r.Smart {
				r.Smart[j] = randomValue(rng)
			}
			for j := range r.WCounts {
				r.WCounts[j] = randomValue(rng)
			}
			for j := range r.BCounts {
				r.BCounts[j] = randomValue(rng)
			}
			if err := d.Append(r); err != nil {
				panic(err)
			}
			if rng.Intn(10) == 0 {
				fw = firmware.Version(fmt.Sprintf("FW%d", rng.Intn(3)))
			}
			day += 1 + rng.Intn(12) // gaps from 1 (consecutive) to 12
		}
	}
	return d
}

// randomValue draws a value whose bit pattern can expose arithmetic
// reordering: small counts, fractions, and the occasional -0.
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return float64(rng.Intn(5))
	case 3:
		return rng.Float64() * 10
	default:
		return float64(rng.Intn(100)) / 3
	}
}

// requireDatasetsEqualBits asserts two datasets agree exactly,
// including the bit patterns of every float (so +0 vs -0 and any
// arithmetic reordering fail loudly).
func requireDatasetsEqualBits(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.cumulated != got.cumulated {
		t.Fatalf("cumulated marker: want %v, got %v", want.cumulated, got.cumulated)
	}
	wantSNs, gotSNs := want.SerialNumbers(), got.SerialNumbers()
	if len(wantSNs) != len(gotSNs) {
		t.Fatalf("drive count: want %d, got %d", len(wantSNs), len(gotSNs))
	}
	for i := range wantSNs {
		if wantSNs[i] != gotSNs[i] {
			t.Fatalf("drive order at %d: want %s, got %s", i, wantSNs[i], gotSNs[i])
		}
	}
	for _, sn := range wantSNs {
		ws, _ := want.Series(sn)
		gs, ok := got.Series(sn)
		if !ok {
			t.Fatalf("drive %s missing", sn)
		}
		if ws.Vendor != gs.Vendor || ws.Model != gs.Model {
			t.Fatalf("drive %s identity: want %s/%s, got %s/%s", sn, ws.Vendor, ws.Model, gs.Vendor, gs.Model)
		}
		if len(ws.Records) != len(gs.Records) {
			t.Fatalf("drive %s: want %d records, got %d", sn, len(ws.Records), len(gs.Records))
		}
		for i := range ws.Records {
			a, b := &ws.Records[i], &gs.Records[i]
			if a.Day != b.Day || a.Firmware != b.Firmware || a.Interpolated != b.Interpolated {
				t.Fatalf("drive %s record %d: want day=%d fw=%s interp=%v, got day=%d fw=%s interp=%v",
					sn, i, a.Day, a.Firmware, a.Interpolated, b.Day, b.Firmware, b.Interpolated)
			}
			for j := range a.Smart {
				if math.Float64bits(a.Smart[j]) != math.Float64bits(b.Smart[j]) {
					t.Fatalf("drive %s record %d SMART[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.Smart[j]), math.Float64bits(b.Smart[j]))
				}
			}
			for j := range a.WCounts {
				if math.Float64bits(a.WCounts[j]) != math.Float64bits(b.WCounts[j]) {
					t.Fatalf("drive %s record %d W[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.WCounts[j]), math.Float64bits(b.WCounts[j]))
				}
			}
			for j := range a.BCounts {
				if math.Float64bits(a.BCounts[j]) != math.Float64bits(b.BCounts[j]) {
					t.Fatalf("drive %s record %d B[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.BCounts[j]), math.Float64bits(b.BCounts[j]))
				}
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	d := randomDataset(1, 30)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != d.Len() || f.Drives() != d.Drives() {
		t.Fatalf("frame shape %d rows/%d drives, dataset %d/%d", f.Len(), f.Drives(), d.Len(), d.Drives())
	}
	requireDatasetsEqualBits(t, d, f.ToDataset())
}

func TestFrameRoundTripCumulated(t *testing.T) {
	d := randomDataset(2, 10)
	cumulateRef(d)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Cumulated() {
		t.Fatal("cumulated marker lost in FrameFromDataset")
	}
	requireDatasetsEqualBits(t, d, f.ToDataset())
}

// appendRecord streams one record into b.
func appendRecord(b *FrameBuilder, r Record) error {
	return b.AppendRow(r.SerialNumber, r.Vendor, r.Model, r.Day, r.Firmware,
		&r.Smart, r.WCounts, r.BCounts, r.Interpolated)
}

func TestFrameBuilderStream(t *testing.T) {
	d := randomDataset(3, 20)
	b := NewFrameBuilder()
	d.Each(func(s *DriveSeries) {
		for i := range s.Records {
			if err := appendRecord(b, s.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	requireDatasetsEqualBits(t, d, b.Finish().ToDataset())
}

func TestFrameBuilderSameDayReplaces(t *testing.T) {
	b := NewFrameBuilder()
	r1 := rec("A", 3)
	r1.WCounts[0] = 1
	r2 := rec("A", 3)
	r2.WCounts[0] = 9
	if err := appendRecord(b, r1); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(b, r2); err != nil {
		t.Fatal(err)
	}
	f := b.Finish()
	if f.Len() != 1 {
		t.Fatalf("want 1 row after same-day replace, got %d", f.Len())
	}
	if got := f.WRow(0)[0]; got != 9 {
		t.Fatalf("replacement not applied: W[0] = %g", got)
	}
}

func TestFrameBuilderRejectsOutOfOrder(t *testing.T) {
	b := NewFrameBuilder()
	if err := appendRecord(b, rec("A", 5)); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(b, rec("A", 4)); !errors.Is(err, ErrRowOrder) {
		t.Fatalf("day regression: got %v, want ErrRowOrder", err)
	}
}

func TestFrameBuilderRejectsReappearingDrive(t *testing.T) {
	b := NewFrameBuilder()
	for _, step := range []struct {
		sn  string
		day int
	}{{"A", 0}, {"B", 0}} {
		if err := appendRecord(b, rec(step.sn, step.day)); err != nil {
			t.Fatal(err)
		}
	}
	if err := appendRecord(b, rec("A", 1)); !errors.Is(err, ErrRowOrder) {
		t.Fatalf("drive reappearance: got %v, want ErrRowOrder", err)
	}
}

func TestFrameBuilderRejectsIdentityChange(t *testing.T) {
	b := NewFrameBuilder()
	if err := appendRecord(b, rec("A", 0)); err != nil {
		t.Fatal(err)
	}
	r := rec("A", 1)
	r.Model = "other"
	if err := appendRecord(b, r); err == nil {
		t.Fatal("identity change accepted")
	}
}

func TestAddDriveValidatesDays(t *testing.T) {
	f := NewFrameArena(3)
	f.SetDay(0, 2)
	f.SetDay(1, 2) // duplicate day
	f.SetDay(2, 1) // regression
	if err := f.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("duplicate day accepted")
	}
	f2 := NewFrameArena(2)
	f2.SetDay(0, 5)
	f2.SetDay(1, 3)
	if err := f2.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("decreasing days accepted")
	}
	f3 := NewFrameArena(2)
	f3.SetDay(0, -1)
	if err := f3.AddDrive("A", "I", "M", 0, 1); err == nil {
		t.Fatal("negative day accepted")
	}
	f4 := NewFrameArena(2)
	f4.SetDay(0, 0)
	f4.SetDay(1, 1)
	if err := f4.AddDrive("A", "I", "M", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := f4.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("duplicate serial accepted")
	}
	if err := f4.AddDrive("B", "I", "M", 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestFilterVendorView(t *testing.T) {
	d := randomDataset(4, 30)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	want := subset(d, func(r *Record) bool { return r.Vendor == "I" })
	got := f.FilterVendor("I")
	requireDatasetsEqualBits(t, want, got.ToDataset())
	if f.FilterVendor("") != f {
		t.Fatal("empty vendor should return the frame itself")
	}
}

func TestWriteCSVFrameMatchesWriteCSV(t *testing.T) {
	d := randomDataset(5, 15)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	var recBuf, frameBuf bytes.Buffer
	if err := WriteCSV(&recBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVFrame(&frameBuf, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recBuf.Bytes(), frameBuf.Bytes()) {
		t.Fatal("WriteCSVFrame output differs from WriteCSV")
	}
}

func TestReadCSVFrameRoundTrip(t *testing.T) {
	d := randomDataset(6, 15)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCSVFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireDatasetsEqualBits(t, d, f.ToDataset())
}

func TestReadCSVFrameFallbackOnInterleavedRows(t *testing.T) {
	// Interleave two drives' rows: the streaming builder cannot take
	// them, so the reader must fall back to Dataset ingestion and still
	// return the right frame.
	d := New()
	for day := 0; day < 4; day++ {
		mustAppend(t, d, rec("A", day))
		mustAppend(t, d, rec("B", day))
	}
	var interleaved bytes.Buffer
	cw := csv.NewWriter(&interleaved)
	if err := cw.Write(Header()); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 4; day++ {
		for _, sn := range []string{"A", "B"} {
			s, _ := d.Series(sn)
			if err := cw.Write(recordRow(&s.Records[day])); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCSVFrame(bytes.NewReader(interleaved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireDatasetsEqualBits(t, d, f.ToDataset())
}

func TestCumulateTwiceErrors(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2}})
	once, _, err := PreparePipeline(frameOf(t, d), PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !once.Cumulated() {
		t.Fatal("cumulated marker not set")
	}
	if _, _, err := PreparePipeline(once, PipelineOptions{SkipClean: true}); err == nil {
		t.Fatal("second cumulation accepted")
	}
}

func TestCumulatedMarkerPropagates(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2}, "B": {0, 1}})
	cum, _, err := PreparePipeline(frameOf(t, d), PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cum.FilterVendor("I").Cumulated() {
		t.Fatal("FilterVendor dropped the cumulated marker")
	}
	if !cum.Until(1).Cumulated() {
		t.Fatal("Until dropped the cumulated marker")
	}
	cleaned, _, err := PreparePipeline(cum, PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cleaned.Cumulated() {
		t.Fatal("the clean stage dropped the cumulated marker")
	}
	back := cum.ToDataset()
	if !back.cumulated {
		t.Fatal("ToDataset dropped the cumulated marker")
	}
	if !back.Clone().cumulated {
		t.Fatal("Clone dropped the cumulated marker")
	}
	if !frameOf(t, back).Cumulated() {
		t.Fatal("FrameFromDataset dropped the cumulated marker")
	}
}

func TestPreparePipelineRejectsCumulatedFrame(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2}})
	cumulateRef(d)
	f := frameOf(t, d)
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy()}); err == nil {
		t.Fatal("cumulating a cumulated frame accepted")
	}
	// With cumulation skipped the frame is only cleaned — no hazard.
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true}); err != nil {
		t.Fatal(err)
	}
}

func TestGapHistogramGuardsNonPositiveGaps(t *testing.T) {
	// Hand-assemble a corrupt series (Append would reject it) to pin
	// the guard: duplicate and backwards days land in bucket 0.
	d := New()
	s := &DriveSeries{SerialNumber: "X", Vendor: "I", Model: "M"}
	for _, day := range []int{5, 5, 3, 9} {
		r := rec("X", day)
		s.Records = append(s.Records, r)
	}
	d.bySN["X"] = s
	d.order = append(d.order, "X")
	hist := GapHistogram(d, 10)
	if hist[0] != 2 {
		t.Fatalf("non-positive gaps in bucket 0 = %d, want 2", hist[0])
	}
	if hist[6] != 1 {
		t.Fatalf("gap 6 count = %d, want 1", hist[6])
	}
}

// preparedRecordPath runs the record-form reference pipeline (clean
// + cumulate) that PreparePipeline fuses.
func preparedRecordPath(d *Dataset, policy GapPolicy, skipClean, skipCumulate bool) (*Dataset, CleanStats) {
	var stats CleanStats
	out := d
	if !skipClean {
		out, stats = cleanRef(d, policy)
	} else if !skipCumulate {
		out = d.Clone()
	}
	if !skipCumulate {
		cumulateRef(out)
	}
	return out, stats
}

// subset returns the records of d that keep accepts, in d's drive
// order, omitting drives left empty and carrying the cumulated marker.
func subset(d *Dataset, keep func(*Record) bool) *Dataset {
	out := New()
	out.cumulated = d.cumulated
	d.Each(func(s *DriveSeries) {
		c := &DriveSeries{SerialNumber: s.SerialNumber, Vendor: s.Vendor, Model: s.Model}
		for i := range s.Records {
			if keep(&s.Records[i]) {
				c.Records = append(c.Records, s.Records[i])
			}
		}
		if len(c.Records) > 0 {
			out.bySN[c.SerialNumber] = c
			out.order = append(out.order, c.SerialNumber)
		}
	})
	return out
}

func TestPreparePipelineMatchesRecordPath(t *testing.T) {
	policies := []GapPolicy{DefaultGapPolicy(), {DropGap: 5, FillGap: 2}, {DropGap: 13, FillGap: 9}}
	for seed := int64(0); seed < 4; seed++ {
		d := randomDataset(seed, 25)
		f, err := FrameFromDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range policies {
			for _, workers := range []int{1, 0, 3} {
				want, wantStats := preparedRecordPath(d, policy, false, false)
				got, gotStats, err := PreparePipeline(f, PipelineOptions{Policy: policy, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if wantStats != gotStats {
					t.Fatalf("seed %d policy %+v workers %d: stats %+v, want %+v",
						seed, policy, workers, gotStats, wantStats)
				}
				requireDatasetsEqualBits(t, want, got.ToDataset())
			}
		}
	}
}

func TestPreparePipelineAblations(t *testing.T) {
	d := randomDataset(7, 20)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ skipClean, skipCumulate bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	}
	for _, c := range cases {
		want, wantStats := preparedRecordPath(d, DefaultGapPolicy(), c.skipClean, c.skipCumulate)
		got, gotStats, err := PreparePipeline(f, PipelineOptions{
			Policy: DefaultGapPolicy(), SkipClean: c.skipClean, SkipCumulate: c.skipCumulate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantStats != gotStats {
			t.Fatalf("case %+v: stats %+v, want %+v", c, gotStats, wantStats)
		}
		requireDatasetsEqualBits(t, want, got.ToDataset())
	}
}

func TestPreparePipelineWorkerDeterminism(t *testing.T) {
	d := randomDataset(8, 40)
	f, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		got, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		requireDatasetsEqualBits(t, base.ToDataset(), got.ToDataset())
	}
}

// FuzzPreparePipeline drives the fused pass with arbitrary fleet
// shapes and gap policies, always requiring bit-identity with the
// record path.
func FuzzPreparePipeline(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(2))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0))
	f.Add(int64(99), uint8(13), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, dropGap, fillGap, workers uint8) {
		policy := GapPolicy{DropGap: int(dropGap), FillGap: int(fillGap)}
		if policy.Validate() != nil {
			t.Skip()
		}
		d := randomDataset(seed, 12)
		fr, err := FrameFromDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := preparedRecordPath(d, policy, false, false)
		got, gotStats, err := PreparePipeline(fr, PipelineOptions{Policy: policy, Workers: int(workers)})
		if err != nil {
			t.Fatal(err)
		}
		if wantStats != gotStats {
			t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
		}
		requireDatasetsEqualBits(t, want, got.ToDataset())
	})
}

// FuzzReadCSVFrame asserts that whatever the streaming frame reader
// parses, written back with WriteCSVFrame, reads back identically.
func FuzzReadCSVFrame(f *testing.F) {
	d := New()
	_ = d.Append(rec("A", 1))
	var sb strings.Builder
	_ = WriteCSV(&sb, d)
	f.Add(sb.String())
	f.Add("")
	f.Add(strings.Repeat("x,", 53) + "x\n")
	f.Fuzz(func(t *testing.T, input string) {
		fr, err := ReadCSVFrame(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSVFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSVFrame(&buf)
		if err != nil {
			t.Fatalf("rewritten frame does not parse: %v", err)
		}
		requireDatasetsEqualBits(t, fr.ToDataset(), back.ToDataset())
	})
}
