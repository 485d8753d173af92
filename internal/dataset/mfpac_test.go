package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// requireFramesEqualBits asserts two frames hold identical telemetry:
// same drives in order, same days/flags/firmware versions, and
// bit-identical floats. Interned firmware codes may differ between
// frames; versions must not.
func requireFramesEqualBits(t *testing.T, want, got *Frame) {
	t.Helper()
	if want.Cumulated() != got.Cumulated() {
		t.Fatalf("cumulated marker: want %v, got %v", want.Cumulated(), got.Cumulated())
	}
	if want.Drives() != got.Drives() {
		t.Fatalf("drive count: want %d, got %d", want.Drives(), got.Drives())
	}
	if want.Len() != got.Len() {
		t.Fatalf("row count: want %d, got %d", want.Len(), got.Len())
	}
	for di := 0; di < want.Drives(); di++ {
		wd, gd := want.Drive(di), got.Drive(di)
		if wd.SerialNumber != gd.SerialNumber || wd.Vendor != gd.Vendor || wd.Model != gd.Model {
			t.Fatalf("drive %d identity: want %s %s/%s, got %s %s/%s",
				di, wd.SerialNumber, wd.Vendor, wd.Model, gd.SerialNumber, gd.Vendor, gd.Model)
		}
		if wd.Rows() != gd.Rows() {
			t.Fatalf("drive %s: want %d rows, got %d", wd.SerialNumber, wd.Rows(), gd.Rows())
		}
		for k := 0; k < wd.Rows(); k++ {
			wr, gr := int(wd.Start)+k, int(gd.Start)+k
			if want.Day(wr) != got.Day(gr) || want.Interpolated(wr) != got.Interpolated(gr) {
				t.Fatalf("drive %s row %d: want day=%d interp=%v, got day=%d interp=%v",
					wd.SerialNumber, k, want.Day(wr), want.Interpolated(wr), got.Day(gr), got.Interpolated(gr))
			}
			if want.FirmwareAt(wr) != got.FirmwareAt(gr) {
				t.Fatalf("drive %s row %d firmware: want %s, got %s",
					wd.SerialNumber, k, want.FirmwareAt(wr), got.FirmwareAt(gr))
			}
			for name, cols := range map[string][2][]float64{
				"SMART": {want.SmartRow(wr), got.SmartRow(gr)},
				"W":     {want.WRow(wr), got.WRow(gr)},
				"B":     {want.BRow(wr), got.BRow(gr)},
			} {
				for j := range cols[0] {
					if math.Float64bits(cols[0][j]) != math.Float64bits(cols[1][j]) {
						t.Fatalf("drive %s row %d %s[%d]: want %x, got %x", wd.SerialNumber, k, name, j,
							math.Float64bits(cols[0][j]), math.Float64bits(cols[1][j]))
					}
				}
			}
		}
	}
}

func mfpacBytes(t *testing.T, f *Frame, workers, blockRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeMFPAC(&buf, f, workers, blockRows); err != nil {
		t.Fatalf("writeMFPAC: %v", err)
	}
	return buf.Bytes()
}

// TestMFPACRoundTrip pins Frame→MFPAC→Frame bit-identity across seeds,
// block geometries, and reader/writer worker counts.
func TestMFPACRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		want, err := FrameFromDataset(randomDataset(seed, 12))
		if err != nil {
			t.Fatal(err)
		}
		for _, blockRows := range []int{1, 7, 64, mfpacBlockRows} {
			file := mfpacBytes(t, want, 1, blockRows)
			for _, workers := range []int{1, 0, 3} {
				got, err := readMFPAC(bytes.NewReader(file), len(file), workers)
				if err != nil {
					t.Fatalf("seed %d blockRows %d workers %d: %v", seed, blockRows, workers, err)
				}
				requireFramesEqualBits(t, want, got)
				requireDatasetsEqualBits(t, want.ToDataset(), got.ToDataset())
			}
		}
	}
}

// TestMFPACRoundTripCumulated keeps the cumulated marker across the
// container, so a cumulated file cannot be cumulated twice downstream.
func TestMFPACRoundTripCumulated(t *testing.T) {
	d := randomDataset(3, 6)
	cumulateRef(d)
	want, err := FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readMFPAC(bytes.NewReader(mfpacBytes(t, want, 0, 16)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cumulated() {
		t.Fatal("cumulated marker lost in round trip")
	}
	requireFramesEqualBits(t, want, got)
}

// TestMFPACRoundTripGapPolicies runs cleaned/cumulated pipeline output
// (the other frame shape tools persist) through the container across
// gap policies.
func TestMFPACRoundTripGapPolicies(t *testing.T) {
	raw, err := FrameFromDataset(randomDataset(11, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []GapPolicy{
		DefaultGapPolicy(),
		{DropGap: 8, FillGap: 5},
		{DropGap: 14, FillGap: 1},
	} {
		want, _, err := PreparePipeline(raw, PipelineOptions{Policy: policy, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want.Drives() == 0 {
			t.Fatalf("policy %+v dropped every drive; fixture too small", policy)
		}
		got, err := readMFPAC(bytes.NewReader(mfpacBytes(t, want, 0, 32)), 0, 0)
		if err != nil {
			t.Fatalf("policy %+v: %v", policy, err)
		}
		requireFramesEqualBits(t, want, got)
	}
}

// TestMFPACWriterDeterminism pins the container bytes across encode
// worker counts.
func TestMFPACWriterDeterminism(t *testing.T) {
	f, err := FrameFromDataset(randomDataset(5, 20))
	if err != nil {
		t.Fatal(err)
	}
	want := mfpacBytes(t, f, 1, 64)
	for _, workers := range []int{0, 2, 5} {
		if got := mfpacBytes(t, f, workers, 64); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d produced different bytes than workers=1", workers)
		}
	}
}

// TestMFPACMatchesCSVTwin is the equivalence gate the io benchmark
// relies on: the frame loaded from an .mfpac file is bit-identical to
// the frame loaded from the CSV written off the same source.
func TestMFPACMatchesCSVTwin(t *testing.T) {
	src, err := FrameFromDataset(randomDataset(9, 15))
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteCSVFrame(&csvBuf, src); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSVFrame(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromMFPAC, err := readMFPAC(bytes.NewReader(mfpacBytes(t, src, 0, 0)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, fromCSV, fromMFPAC)
}

// TestMFPACFilterVendorView writes a shared-arena vendor view; the
// file must describe only the view's drives, densely packed.
func TestMFPACFilterVendorView(t *testing.T) {
	full, err := FrameFromDataset(randomDataset(4, 18))
	if err != nil {
		t.Fatal(err)
	}
	view := full.FilterVendor("I")
	if view.Drives() == 0 || view.Drives() == full.Drives() {
		t.Fatalf("fixture: vendor I has %d of %d drives", view.Drives(), full.Drives())
	}
	got, err := readMFPAC(bytes.NewReader(mfpacBytes(t, view, 0, 16)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, view, got)
	if got.Len() != len(got.day) {
		t.Fatalf("decoded frame not dense: %d rows in %d-row arena", got.Len(), len(got.day))
	}
}

// TestMFPACEmptyFrame round-trips a frame with no drives.
func TestMFPACEmptyFrame(t *testing.T) {
	got, err := readMFPAC(bytes.NewReader(mfpacBytes(t, NewFrameArena(0), 0, 0)), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Drives() != 0 || got.Len() != 0 {
		t.Fatalf("empty round trip: %d drives, %d rows", got.Drives(), got.Len())
	}
}

// TestMFPACCorruption asserts malformed containers are rejected with
// errors — truncations, single-bit flips (every byte is covered by one
// of the three CRCs or the structural checks), bad magic, and a bad
// version — and never panic.
func TestMFPACCorruption(t *testing.T) {
	f, err := FrameFromDataset(randomDataset(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	file := mfpacBytes(t, f, 1, 16)

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(file); n += 1 + n/16 {
			if _, err := readMFPAC(bytes.NewReader(file[:n]), 0, 0); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})

	t.Run("bitflips", func(t *testing.T) {
		mut := make([]byte, len(file))
		for i := range file {
			copy(mut, file)
			mut[i] ^= 1 << (i % 8)
			if _, err := readMFPAC(bytes.NewReader(mut), 0, 0); err == nil {
				t.Fatalf("bit flip at byte %d of %d decoded successfully", i, len(file))
			}
		}
	})

	t.Run("badmagic", func(t *testing.T) {
		mut := append([]byte(nil), file...)
		mut[0] = 'X'
		if _, err := readMFPAC(bytes.NewReader(mut), 0, 0); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic: got %v", err)
		}
	})

	t.Run("badversion", func(t *testing.T) {
		mut := append([]byte(nil), file...)
		mut[8] = 99 // version field; refresh the header CRC so only the
		// version check can fire
		patchMFPACHeaderCRC(mut)
		if _, err := readMFPAC(bytes.NewReader(mut), 0, 0); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("bad version: got %v", err)
		}
	})

	t.Run("widthmismatch", func(t *testing.T) {
		mut := append([]byte(nil), file...)
		mut[12]++ // SMART width
		patchMFPACHeaderCRC(mut)
		if _, err := readMFPAC(bytes.NewReader(mut), 0, 0); err == nil || !strings.Contains(err.Error(), "SMART columns") {
			t.Fatalf("width mismatch: got %v", err)
		}
	})
}

// TestReadTelemetryAutoDetect routes by magic bytes: MFPAC containers
// to the block codec, anything else to the CSV reader.
func TestReadTelemetryAutoDetect(t *testing.T) {
	want, err := FrameFromDataset(randomDataset(8, 7))
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReadTelemetry(bytes.NewReader(mfpacBytes(t, want, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, want, got)

	var csvBuf bytes.Buffer
	if err := WriteCSVFrame(&csvBuf, want); err != nil {
		t.Fatal(err)
	}
	twin, err := ReadCSVFrame(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err = ReadTelemetry(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, twin, got)

	if _, err := ReadTelemetry(strings.NewReader("not,a\nvalid,file\n")); err == nil {
		t.Fatal("junk input decoded successfully")
	}
	if _, err := ReadTelemetry(strings.NewReader("")); err == nil {
		t.Fatal("empty input decoded successfully")
	}
}

func TestFormatHelpers(t *testing.T) {
	if f, ok := ParseFormat("CSV"); !ok || f != FormatCSV {
		t.Fatalf("ParseFormat CSV: %v %v", f, ok)
	}
	if f, ok := ParseFormat("mfpac"); !ok || f != FormatMFPAC {
		t.Fatalf("ParseFormat mfpac: %v %v", f, ok)
	}
	if _, ok := ParseFormat("parquet"); ok {
		t.Fatal("ParseFormat accepted parquet")
	}
	if f := FormatForPath("fleet.MFPAC"); f != FormatMFPAC {
		t.Fatalf("FormatForPath .MFPAC: %v", f)
	}
	if f := FormatForPath("fleet.csv"); f != FormatCSV {
		t.Fatalf("FormatForPath .csv: %v", f)
	}

	want, err := FrameFromDataset(randomDataset(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatCSV, FormatMFPAC} {
		var buf bytes.Buffer
		if err := WriteTelemetry(&buf, want, format); err != nil {
			t.Fatalf("WriteTelemetry %s: %v", format, err)
		}
		got, err := ReadTelemetry(&buf)
		if err != nil {
			t.Fatalf("ReadTelemetry %s: %v", format, err)
		}
		if got.Len() != want.Len() || got.Drives() != want.Drives() {
			t.Fatalf("%s round trip: %d/%d rows, %d/%d drives",
				format, got.Len(), want.Len(), got.Drives(), want.Drives())
		}
	}
	if err := WriteTelemetry(&bytes.Buffer{}, want, Format("parquet")); err == nil {
		t.Fatal("WriteTelemetry accepted unknown format")
	}
}

// patchMFPACHeaderCRC recomputes the header checksum after a
// deliberate header mutation, so tests can reach the checks behind it.
func patchMFPACHeaderCRC(file []byte) {
	binary.LittleEndian.PutUint32(file[40:44], crc32.ChecksumIEEE(file[:40]))
}
