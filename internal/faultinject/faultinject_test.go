package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/winevent"
)

func testRecords(n int) []dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		recs[i] = dataset.Record{
			SerialNumber: fmt.Sprintf("D-%03d", i),
			Vendor:       "I",
			Model:        "M",
			Day:          7,
			Firmware:     firmware.Version("1.0.0"),
			WCounts:      make(winevent.Counts, winevent.Count()),
			BCounts:      make(bsod.Counts, bsod.Count()),
		}
		for j := range recs[i].Smart {
			recs[i].Smart[j] = float64(j)
		}
	}
	return recs
}

// recordsEqual compares records with bitwise float equality, so
// injected NaNs compare equal to themselves (reflect.DeepEqual treats
// NaN ≠ NaN).
func recordsEqual(a, b dataset.Record) bool {
	if a.SerialNumber != b.SerialNumber || a.Vendor != b.Vendor || a.Model != b.Model ||
		a.Day != b.Day || a.Firmware != b.Firmware || a.Interpolated != b.Interpolated {
		return false
	}
	floatsEqual := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return floatsEqual(a.Smart[:], b.Smart[:]) && floatsEqual(a.WCounts, b.WCounts) && floatsEqual(a.BCounts, b.BCounts)
}

// TestCorruptorDeterminism: same seed, same campaign — different seed,
// (almost surely) different campaign.
func TestCorruptorDeterminism(t *testing.T) {
	recs := testRecords(500)
	run := func(seed int64) ([]dataset.Record, []Corruption) {
		c := NewRecordCorruptor(CorruptorConfig{Seed: seed, Rate: 0.1})
		return c.Corrupt(recs)
	}
	out1, log1 := run(42)
	out2, log2 := run(42)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatal("same seed produced different corruption logs")
	}
	if len(out1) != len(out2) {
		t.Fatal("same seed produced different batch lengths")
	}
	for i := range out1 {
		if !recordsEqual(out1[i], out2[i]) {
			t.Fatalf("record %d differs between same-seed runs", i)
		}
	}
	if len(log1) == 0 {
		t.Fatal("campaign injected nothing at rate 0.1 over 500 records")
	}
	_, log3 := run(43)
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical campaigns")
	}
}

// TestCorruptorNeverMutatesInput: the clean batch must stay scoreable
// next to the corrupted one.
func TestCorruptorNeverMutatesInput(t *testing.T) {
	recs := testRecords(200)
	want := make([]dataset.Record, len(recs))
	for i := range recs {
		want[i] = recs[i].Clone()
	}
	c := NewRecordCorruptor(CorruptorConfig{Seed: 7, Rate: 0.5})
	_, log := c.Corrupt(recs)
	if len(log) == 0 {
		t.Fatal("nothing corrupted at rate 0.5")
	}
	for i := range recs {
		if !recordsEqual(recs[i], want[i]) {
			t.Fatalf("input record %d mutated", i)
		}
	}
}

// TestCorruptKindsProduceInvalidRecords: every value-level kind must
// actually trip dataset validation, or the chaos campaign would test
// nothing.
func TestCorruptKindsProduceInvalidRecords(t *testing.T) {
	for _, kind := range []CorruptKind{KindNaNSmart, KindInfSmart, KindNegativeW, KindNegativeB} {
		c := NewRecordCorruptor(CorruptorConfig{Seed: 1, Rate: 1, Kinds: []CorruptKind{kind}})
		out, log := c.Corrupt(testRecords(8))
		if len(log) != 8 {
			t.Fatalf("%v: %d corruptions, want 8", kind, len(log))
		}
		bad := 0
		for i := range out {
			if out[i].Validate() != nil {
				bad++
			}
		}
		if bad != 8 {
			t.Fatalf("%v: %d of 8 corrupted records fail validation", kind, bad)
		}
	}
	// Day-shuffling kinds keep records individually valid; the rolling
	// state is what rejects them.
	c := NewRecordCorruptor(CorruptorConfig{Seed: 1, Rate: 1, Kinds: []CorruptKind{KindDuplicateDay}})
	out, log := c.Corrupt(testRecords(4))
	if len(log) != 4 || len(out) != 8 {
		t.Fatalf("duplicate-day: %d corruptions over %d output records, want 4 over 8", len(log), len(out))
	}
	for i := range out {
		if err := out[i].Validate(); err != nil {
			t.Fatalf("duplicated record %d invalid: %v", i, err)
		}
	}
}

func TestScheduleFirstAndDeterminism(t *testing.T) {
	f := NewScorerFaults(ScorerConfig{Seed: 9, ObserveFirst: 3})
	for i := 0; i < 3; i++ {
		if err := f.Observe(); err == nil {
			t.Fatalf("forced fault %d did not fire", i)
		} else if !IsTransient(err) {
			t.Fatalf("observe fault not transient: %v", err)
		}
	}
	// No probability configured: never fires again.
	for i := 0; i < 100; i++ {
		if err := f.Observe(); err != nil {
			t.Fatalf("unexpected fault after forced window: %v", err)
		}
	}
	observe, score, swap := f.Fired()
	if observe != 3 || score != 0 || swap != 0 {
		t.Fatalf("Fired() = %d,%d,%d want 3,0,0", observe, score, swap)
	}

	// Probabilistic schedules replay exactly under the same seed.
	seqOf := func(seed int64) []bool {
		sf := NewScorerFaults(ScorerConfig{Seed: seed, ScoreP: 0.3})
		seq := make([]bool, 200)
		for i := range seq {
			seq[i] = sf.Score() != nil
		}
		return seq
	}
	if !reflect.DeepEqual(seqOf(5), seqOf(5)) {
		t.Fatal("same seed produced different score-fault schedules")
	}
	if reflect.DeepEqual(seqOf(5), seqOf(6)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScoreFaultNotTransient: scoring faults degrade, they are not
// retried.
func TestScoreFaultNotTransient(t *testing.T) {
	f := NewScorerFaults(ScorerConfig{ScoreFirst: 1})
	if err := f.Score(); err == nil || IsTransient(err) {
		t.Fatalf("score fault should fire non-transient, got %v", err)
	}
	if err := f.Swap(); err != nil {
		t.Fatalf("swap seam leaked a fault: %v", err)
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(fmt.Errorf("wrap: %w", &Error{Op: "observe", Retryable: true})) {
		t.Fatal("wrapped retryable fault not detected")
	}
	if IsTransient(&Error{Op: "score"}) {
		t.Fatal("non-retryable fault reported transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error reported transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil reported transient")
	}
}

// TestIOFaultsHooks drives each seam through atomicio and checks the
// counters line up with observed behaviour.
func TestIOFaultsHooks(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/f"
	if err := writeBytes(path, []byte("good")); err != nil {
		t.Fatal(err)
	}

	f := NewIOFaults(IOConfig{Seed: 3, ShortWriteP: 1})
	restore := atomicio.SetHooks(f.Hooks())
	big := make([]byte, 1<<16)
	err := writeBytes(path, big)
	restore()
	if err == nil || f.ShortWrites != 1 {
		t.Fatalf("short write did not fire: err=%v count=%d", err, f.ShortWrites)
	}
	if !IsTransient(err) {
		t.Fatalf("short-write error not transient: %v", err)
	}

	f = NewIOFaults(IOConfig{Seed: 3, RenameFailP: 1})
	restore = atomicio.SetHooks(f.Hooks())
	err = writeBytes(path, []byte("new"))
	restore()
	if err == nil || f.RenameFails != 1 {
		t.Fatalf("rename fault did not fire: err=%v count=%d", err, f.RenameFails)
	}
	if b, rerr := io.ReadAll(mustOpen(t, path)); rerr != nil || string(b) != "good" {
		t.Fatalf("destination disturbed: %q %v", b, rerr)
	}

	f = NewIOFaults(IOConfig{Seed: 3, TruncateReadP: 1})
	restore = atomicio.SetHooks(f.Hooks())
	rc, err := atomicio.Open(path)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	restore()
	if f.TruncatedReads != 1 {
		t.Fatalf("truncated-read count %d, want 1", f.TruncatedReads)
	}
	if len(got) > len("good") {
		t.Fatalf("truncating reader returned %d bytes", len(got))
	}
}

func mustOpen(t *testing.T, path string) io.ReadCloser {
	t.Helper()
	rc, err := atomicio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// writeBytes atomically replaces path with data.
func writeBytes(path string, data []byte) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
