package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/firmware"
)

// edgeColumns are the float column patterns of edgeFrame, by column
// index modulo len(edgeColumns): value(k) is row k's value within its
// drive. mode, when not -1, is the encoding the column must pick.
var edgeColumns = []struct {
	name  string
	mode  int
	value func(k int, rng *rand.Rand) float64
}{
	{"specials", -1, func(k int, _ *rand.Rand) float64 {
		return []float64{
			math.Copysign(0, -1),
			math.Float64frombits(0x7ff8_0000_0000_0abc), // NaN with a payload
			math.Inf(1),
			math.Inf(-1),
			math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
			-math.SmallestNonzeroFloat64,
			0,
		}[k%8]
	}},
	{"large-integers", -1, func(k int, _ *rand.Rand) float64 {
		return []float64{
			1 << 53, -(1 << 53), 1<<53 - 1, 9.2e18, -9.2e18,
			math.Nextafter(9.2e18, math.Inf(1)), // just past the int-delta bound
			-(1 << 63),
		}[k%7]
	}},
	{"near-bound-steps", -1, func(k int, _ *rand.Rand) float64 { return 9.2e18 - 1024*float64(k) }},
	{"zero-run", mfpacModeIntDelta, func(k int, _ *rand.Rand) float64 {
		if k == 250 {
			return 3
		}
		return 0
	}},
	{"fractional-gauge", mfpacModeXor, func(k int, _ *rand.Rand) float64 { return 40.5 + 0.25*float64(k/50) }},
	{"random-bits", mfpacModeRaw, func(_ int, rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }},
	{"counter", mfpacModeIntDelta, func(k int, _ *rand.Rand) float64 { return float64(3 * k) }},
	{"all-zero", mfpacModeIntDelta, func(int, *rand.Rand) float64 { return 0 }},
}

// edgeFrame builds a two-drive frame whose float columns cycle through
// edgeColumns, whose second drive starts near the top of the day range,
// and whose firmware table is large enough for multi-byte codes.
func edgeFrame(t testing.TB) *Frame {
	t.Helper()
	const rowsA, rowsB = 300, 40
	f := NewFrameArena(rowsA + rowsB)
	rng := rand.New(rand.NewSource(1))
	for row := 0; row < rowsA+rowsB; row++ {
		k, day := row, int32(3*row)
		if row >= rowsA {
			k, day = row-rowsA, math.MaxInt32-int32(rowsA+rowsB-row)
		}
		f.SetDay(row, day)
		f.SetInterpolated(row, k%5 == 1)
		f.SetFirmware(row, firmware.Version(fmt.Sprintf("FW%d", (7*row)%200)))
		c := 0
		for _, slab := range [][]float64{f.SmartRow(row), f.WRow(row), f.BRow(row)} {
			for j := range slab {
				slab[j] = edgeColumns[c%len(edgeColumns)].value(k, rng)
				c++
			}
		}
	}
	if err := f.AddDrive("A", "I", "MI", 0, rowsA); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDrive("B", "II", "MII", rowsA, rowsA+rowsB); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMFPACRoundTripEdgeValues round-trips IEEE edge cases, integers
// at and past the int-delta bound, long zero runs and all three column
// modes Float64bits-exactly, at several block geometries.
func TestMFPACRoundTripEdgeValues(t *testing.T) {
	want := edgeFrame(t)
	for i, col := range edgeColumns {
		if col.mode < 0 {
			continue
		}
		vals := make([]float64, want.Drive(0).Rows())
		for k := range vals {
			vals[k] = want.SmartRow(k)[i]
		}
		if got := appendMFPACColumn(nil, vals)[0]; int(got) != col.mode {
			t.Fatalf("column %s encodes in mode %d, want %d", col.name, got, col.mode)
		}
	}
	for _, blockRows := range []int{1, 7, 128, mfpacBlockRows} {
		file := mfpacBytes(t, want, 1, blockRows)
		for _, workers := range []int{1, 3} {
			got, err := ReadMFPACWorkers(bytes.NewReader(file), workers)
			if err != nil {
				t.Fatalf("blockRows %d workers %d: %v", blockRows, workers, err)
			}
			requireFramesEqualBits(t, want, got)
		}
	}
}

// blockPayload encodes n rows of f, spread evenly over its arena, as
// one block payload.
func blockPayload(f *Frame, n int) []byte {
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i * f.Len() / n)
	}
	return encodeMFPACBlock(nil, new(mfpacEncoder), f, src)
}

// TestDecodeMFPACBlockTruncatedOrPadded checks that every strict
// prefix of a valid block payload, and the payload with a byte
// appended, fail to decode.
func TestDecodeMFPACBlockTruncatedOrPadded(t *testing.T) {
	for name, f := range map[string]*Frame{"edge": edgeFrame(t), "random": randomFrame(t, 4, 6)} {
		n := min(f.Len(), 60)
		payload := blockPayload(f, n)
		if err := decodeMFPACBlock(payload, NewFrameArena(n), 0, n, len(f.fwTab)); err != nil {
			t.Fatalf("%s: valid payload: %v", name, err)
		}
		for k := 0; k < len(payload); k++ {
			if err := decodeMFPACBlock(payload[:k], NewFrameArena(n), 0, n, len(f.fwTab)); err == nil {
				t.Fatalf("%s: payload truncated to %d of %d bytes decoded", name, k, len(payload))
			}
		}
		if err := decodeMFPACBlock(append(payload, 0), NewFrameArena(n), 0, n, len(f.fwTab)); err == nil {
			t.Fatalf("%s: payload with a trailing byte decoded", name)
		}
	}
}

func randomFrame(t testing.TB, seed int64, drives int) *Frame {
	t.Helper()
	f, err := FrameFromDataset(randomDataset(seed, drives))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// FuzzDecodeMFPACBlock feeds arbitrary payloads straight into the block
// decoder, past the CRCs that stop most container-level mutations:
// every input either decodes, within the day and firmware ranges, or
// returns an error — it never panics.
func FuzzDecodeMFPACBlock(f *testing.F) {
	for _, fr := range []*Frame{randomFrame(f, 1, 3), edgeFrame(f)} {
		n := min(fr.Len(), 64)
		payload := blockPayload(fr, n)
		f.Add(payload, uint16(n), uint16(len(fr.fwTab)))
		f.Add(payload[:len(payload)/2], uint16(n), uint16(len(fr.fwTab)))
		f.Add(payload, uint16(n+1), uint16(1))
	}
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0x80, 0x80, 0x80}, uint16(3), uint16(1))

	f.Fuzz(func(t *testing.T, payload []byte, rows, nfw uint16) {
		n := int(rows % 512)
		fr := NewFrameArena(n)
		if err := decodeMFPACBlock(payload, fr, 0, n, int(nfw)); err != nil {
			return
		}
		for row := 0; row < n; row++ {
			if fr.Day(row) < 0 || int(fr.FirmwareID(row)) >= int(nfw) {
				t.Fatalf("row %d decoded to day %d, firmware %d of %d", row, fr.Day(row), fr.FirmwareID(row), nfw)
			}
		}
	})
}

// TestReadTelemetryReaders reads one container through a file (which
// reports its size, so the read buffer is allocated once), an in-memory
// reader and a pipe (which do not): all three must give the written
// frame.
func TestReadTelemetryReaders(t *testing.T) {
	want := edgeFrame(t)
	file := mfpacBytes(t, want, 1, 64)
	path := filepath.Join(t.TempDir(), "fleet.mfpac")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if got := readerSize(fh); got != len(file) {
		t.Fatalf("file reports size %d, want %d", got, len(file))
	}
	fromFile, err := ReadTelemetry(fh)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, want, fromFile)

	fromBytes, err := ReadTelemetry(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, want, fromBytes)

	pr, pw := io.Pipe()
	go func() {
		// Small writes, so the reader sees many short reads.
		for off := 0; off < len(file); off += 1000 {
			if _, err := pw.Write(file[off:min(off+1000, len(file))]); err != nil {
				return
			}
		}
		pw.Close()
	}()
	fromPipe, err := ReadTelemetry(pr)
	if err != nil {
		t.Fatal(err)
	}
	requireFramesEqualBits(t, want, fromPipe)
}

// TestReadSizedAnySize checks that the size hint only sizes the buffer:
// too small, exact and too large all read the same bytes.
func TestReadSizedAnySize(t *testing.T) {
	data := bytes.Repeat([]byte("mfpac"), 3000)
	for _, size := range []int{0, 1, len(data) - 1, len(data), len(data) + 1, 4 * len(data)} {
		got, err := readSized(bytes.NewReader(data), size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: read %d bytes, want %d", size, len(got), len(data))
		}
	}
}
