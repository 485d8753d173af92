package ingest

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/smartattr"
)

// collectFrame builds a small multi-day frame through the streaming
// collector path, the same way the agent accumulates a checkpoint.
func collectFrame(t *testing.T) *dataset.Frame {
	t.Helper()
	c := mustCollector(t)
	events, _, err := ParseEventCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		c.AddEvent(ev)
	}
	b := dataset.NewFrameBuilder()
	for day := 0; day < 5; day++ {
		var v smartattr.Values
		v.Set(smartattr.AvailableSpare, 97)
		v.Set(smartattr.PowerOnHours, float64(1000+day*13))
		v.Set(smartattr.MediaErrors, float64(day)/3)
		page := smartattr.MarshalHealthLog(&v)
		ts := c.Epoch.Add(time.Duration(day)*24*time.Hour + 20*time.Hour)
		if err := c.SnapshotInto(b, ts, page, 256); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// TestSnapshotRoundTrip pins Save/LoadSnapshot for both on-disk
// formats: the path extension picks the encoding, the loader detects
// it from the leading bytes, and every record survives exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	want := collectFrame(t)
	dir := t.TempDir()
	for _, name := range []string{"checkpoint.mfpac", "checkpoint.csv"} {
		path := filepath.Join(dir, name)
		if err := SaveSnapshot(path, want); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		got, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		wantD, gotD := want.ToDataset(), got.ToDataset()
		sns := wantD.SerialNumbers()
		if len(sns) == 0 {
			t.Fatalf("%s: collector produced no drives", name)
		}
		if !reflect.DeepEqual(sns, gotD.SerialNumbers()) {
			t.Fatalf("%s: drive sets differ after round trip", name)
		}
		for _, sn := range sns {
			ws, _ := wantD.Series(sn)
			gs, _ := gotD.Series(sn)
			if !reflect.DeepEqual(ws, gs) {
				t.Fatalf("%s: drive %s telemetry differs after round trip", name, sn)
			}
		}
	}
}

// bigFrame builds a checkpoint comfortably larger than the injector's
// short-write/truncation window (≤ 4 KiB), so every fault fires
// mid-payload.
func bigFrame(t *testing.T) *dataset.Frame {
	t.Helper()
	b := dataset.NewFrameBuilder()
	for d := 0; d < 40; d++ {
		sn := "T-" + strings.Repeat("0", 2) + string(rune('A'+d%26)) + string(rune('A'+d/26))
		for day := 0; day < 30; day++ {
			var v smartattr.Values
			v.Set(smartattr.PowerOnHours, float64(1000+day*13+d))
			v.Set(smartattr.MediaErrors, float64((day*7+d*3)%11))
			v.Set(smartattr.AvailableSpare, float64(100-day%5))
			if err := b.AppendRow(sn, "I", "M", day, "1.0.0", &v, nil, nil, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Finish()
}

// TestSnapshotKillMidWrite: a checkpoint write that dies partway —
// power loss mid-save, the normal consumer failure mode — must leave
// the previous checkpoint loadable and byte-for-byte intact.
func TestSnapshotKillMidWrite(t *testing.T) {
	frame := bigFrame(t)
	for _, name := range []string{"checkpoint.mfpac", "checkpoint.csv"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveSnapshot(path, frame); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		wantBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Kill every subsequent write partway with the seeded I/O
		// injector; whatever the cut-off point, the published file must
		// stay the good version.
		io := faultinject.NewIOFaults(faultinject.IOConfig{Seed: 7, ShortWriteP: 1})
		restore := atomicio.SetHooks(io.Hooks())
		for i := 0; i < 5; i++ {
			if err := SaveSnapshot(path, frame); err == nil {
				restore()
				t.Fatalf("%s: short write %d not surfaced", name, i)
			}
		}
		restore()
		if io.ShortWrites != 5 {
			t.Fatalf("%s: injector fired %d short writes, want 5", name, io.ShortWrites)
		}
		gotBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotBytes, wantBytes) {
			t.Fatalf("%s: checkpoint corrupted by killed writes", name)
		}
		if _, err := LoadSnapshot(path); err != nil {
			t.Fatalf("%s: surviving checkpoint unloadable: %v", name, err)
		}
	}
}

// TestSnapshotTornReadRecovers: a truncated read of a checkpoint must
// surface as an error, not a short silently-accepted frame.
func TestSnapshotTornReadRecovers(t *testing.T) {
	frame := bigFrame(t)
	for _, name := range []string{"checkpoint.mfpac", "checkpoint.csv"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveSnapshot(path, frame); err != nil {
			t.Fatal(err)
		}
		io := faultinject.NewIOFaults(faultinject.IOConfig{Seed: 11, TruncateReadP: 1})
		restore := atomicio.SetHooks(io.Hooks())
		_, err := LoadSnapshot(path)
		restore()
		if io.TruncatedReads != 1 {
			t.Fatalf("%s: injector truncated %d reads, want 1", name, io.TruncatedReads)
		}
		if err == nil {
			t.Fatalf("%s: torn read accepted", name)
		}
		// The file itself is fine: a retry without the fault succeeds.
		if _, err := LoadSnapshot(path); err != nil {
			t.Fatalf("%s: recovery load failed: %v", name, err)
		}
	}
}

// The checkpoint helpers below compose atomicio's crash-safe writes with
// the telemetry codecs: the tests above pin that the composition
// survives a kill mid-write or a torn read. No binary checkpoints
// collector telemetry this way.

// SaveSnapshot writes frame telemetry to path: the MFPAC container
// when the extension is .mfpac (case-insensitive), CSV otherwise. The
// write is atomic — staged in a same-directory temp file, fsynced, and
// renamed into place — so a crash mid-checkpoint leaves the previous
// snapshot intact instead of a torn file.
func SaveSnapshot(path string, f *dataset.Frame) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return dataset.WriteTelemetry(w, f, dataset.FormatForPath(path))
	})
}

// LoadSnapshot reads a telemetry checkpoint of either format, detected
// by its leading bytes.
func LoadSnapshot(path string) (*dataset.Frame, error) {
	in, err := atomicio.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return dataset.ReadTelemetry(in)
}
