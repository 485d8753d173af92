package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/firmware"
)

// TestStateFileCheckpointCrashSafe: SaveStateFile is the power-loss
// path. A checkpoint killed mid-write, or at the publish step, must
// leave the previous file intact, and LoadStateFile of the survivor
// must restore the scorer.
func TestStateFileCheckpointCrashSafe(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	// The whole vendor fleet, so the checkpoint comfortably exceeds the
	// injector's short-write window (≤ 4 KiB).
	runDays(t, s, dayBatches(fleet, "I"))
	path := filepath.Join(t.TempDir(), "scorer.state")
	if err := s.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) <= 4096 {
		t.Fatalf("checkpoint only %d bytes; too small to outrun the injector", len(good))
	}

	io := faultinject.NewIOFaults(faultinject.IOConfig{Seed: 3, ShortWriteP: 1})
	restore := atomicio.SetHooks(io.Hooks())
	err = s.SaveStateFile(path)
	restore()
	if err == nil {
		t.Fatal("killed checkpoint reported success")
	}
	io = faultinject.NewIOFaults(faultinject.IOConfig{Seed: 3, RenameFailP: 1})
	restore = atomicio.SetHooks(io.Hooks())
	err = s.SaveStateFile(path)
	restore()
	if err == nil {
		t.Fatal("blocked publish reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatal("crashed checkpoints disturbed the good state file")
	}

	restored, err := New(model, Options{Registries: regs, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := restored.SaveState(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), good) {
		t.Fatal("restored scorer state differs from the saved one")
	}
}

// savedState is a genuine checkpoint of a scorer without registries
// after the fixture's first ten days, decoded for editing.
func savedState(t *testing.T) persistedState {
	t.Helper()
	fleet, model, _ := setup(t)
	s, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, s, dayBatches(fleet, "I")[:10])
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	var st persistedState
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Unknown["I"]) == 0 {
		t.Fatal("checkpoint holds no arrival-order firmware codes")
	}
	return st
}

func TestLoadStateRejectsBadInput(t *testing.T) {
	_, model, regs := setup(t)
	load := func(opts Options, data string) error {
		s, err := New(model, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s.LoadState(strings.NewReader(data))
	}
	encode := func(st persistedState) string {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for name, data := range map[string]string{
		"garbage":        "not json",
		"wrong version":  `{"version":9,"group":"SFWB","drives":{}}`,
		"wrong group":    `{"version":1,"group":"S","drives":{}}`,
		"empty serial":   `{"version":1,"group":"SFWB","drives":{"":{"vendor":"I","rolling":{"last_day":-1}}}}`,
		"no rolling":     `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I"}}}`,
		"corrupt drive":  `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I","rolling":{"last_day":-5}}}}`,
		"negative run":   `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I","rolling":{"last_day":-1},"consecutive":-1}}}`,
		"cumulates only": `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I","rolling":{"last_day":2,"observed":3,"rows":3}}}}`,
		"bad reason":     `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I","quarantine":{"SerialNumber":"A","Reason":9}}}}`,
		"other serial":   `{"version":1,"group":"SFWB","drives":{"A":{"vendor":"I","quarantine":{"SerialNumber":"B","Reason":1}}}}`,
	} {
		if err := load(Options{Registries: regs}, data); err == nil {
			t.Errorf("%s: state accepted", name)
		}
	}
	if err := load(Options{}, `{"version":1,"group":"SFWB","drives":{"":{"vendor":"","consecutive":0,"quarantine":{"SerialNumber":"","Reason":1,"Err":"empty serial"}}}}`); err != nil {
		t.Errorf("quarantined empty serial rejected: %v", err)
	}

	// Arrival-order firmware codes must come out as saved: a code that
	// no longer matches, or a registry that now knows the version, is a
	// changed encoding the saved rolling states were not built under.
	st := savedState(t)
	if err := load(Options{}, encode(st)); err != nil {
		t.Fatalf("genuine state rejected: %v", err)
	}
	st.Unknown["I"][0].Code++
	if err := load(Options{}, encode(st)); err == nil {
		t.Error("changed firmware code accepted")
	}
	st = savedState(t)
	reg := firmware.MustNewRegistry("I", []firmware.Release{
		{Seq: 5, Version: st.Unknown["I"][0].Version, HazardMultiplier: 1, ShipShare: 1}})
	if err := load(Options{Registries: map[string]*firmware.Registry{"I": reg}}, encode(st)); err == nil {
		t.Error("state accepted under a registry that codes its firmware differently")
	}
}

func TestLoadStateOnlyAtStartup(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, s, dayBatches(fleet, "I")[:1])
	if err := s.LoadState(strings.NewReader(`{"version":1,"group":"SFWB","drives":{}}`)); err == nil {
		t.Fatal("mid-stream restore accepted")
	}
}

// TestStateSurvivesRestart: one drive streamed a record at a time,
// saved halfway and restored into a fresh scorer, scores its second
// half exactly as the uninterrupted scorer does.
func TestStateSurvivesRestart(t *testing.T) {
	fleet, model, regs := setup(t)
	sn := vendorDrives(fleet, "faulty")[0]
	series, _ := fleet.Data.Series(sn)
	half := len(series.Records) / 2
	if half < 2 {
		t.Fatalf("series of %d records too short", len(series.Records))
	}
	observe := func(s *Scorer, recs []dataset.Record) []Assessment {
		var out []Assessment
		for i := range recs {
			as, _, err := s.ObserveDay(recs[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, as...)
		}
		return out
	}

	cont, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	observe(cont, series.Records[:half])
	want := observe(cont, series.Records[half:])

	first, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	observe(first, series.Records[:half])
	var buf bytes.Buffer
	if err := first.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	second, err := New(model, Options{Registries: regs, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sameAssessments(observe(second, series.Records[half:]), want); err != nil {
		t.Fatalf("restored scorer: %v", err)
	}
	if second.Alarmed(sn) != cont.Alarmed(sn) {
		t.Fatal("alarm latch differs after restart")
	}
}

// TestStateRoundTripWithGapPolicy: a day-major feed under the explicit
// default gap policy, cut at its midpoint, resumes exactly, and the
// resumed half mean-fills gaps from the restored cumulates.
func TestStateRoundTripWithGapPolicy(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	cut := len(batches) / 2
	mk := func() *Scorer {
		s, err := New(model, Options{GapPolicy: dataset.DefaultGapPolicy(), Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	straight := mk()
	runDays(t, straight, batches[:cut])
	want := runDays(t, straight, batches[cut:])

	saved := mk()
	runDays(t, saved, batches[:cut])
	var buf bytes.Buffer
	if err := saved.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	got := runDays(t, restored, batches[cut:])
	if err := sameAssessments(got, want); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	interpolated := false
	for _, a := range got {
		interpolated = interpolated || a.Interpolated
	}
	if !interpolated {
		t.Fatal("fixture tail produced no mean-filled rows; restart-under-fill untested")
	}
}

// fuzzModel is the cheapest valid flat model: the SMART-threshold
// baseline under the default configuration. Fuzzing exercises the
// state decoder, not the classifier, so no training is needed.
func fuzzModel() *core.Model {
	return &core.Model{
		Config:     core.DefaultConfig("I"),
		Classifier: baselines.ThresholdDetector{},
		Threshold:  0.5,
	}
}

// FuzzLoadState pins the recovery contract of the state decoder: a
// state file is adversarial input (torn by a crash, hand-edited, or
// bit-flipped on a dying disk), so arbitrary bytes must produce an
// error, never a panic, and an accepted state must save again and
// explain each of its drives.
func FuzzLoadState(f *testing.F) {
	s, err := New(fuzzModel(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	var genuine bytes.Buffer
	if err := s.SaveState(&genuine); err != nil {
		f.Fatal(err)
	}
	f.Add(genuine.Bytes())
	f.Add([]byte(`{"version":1,"group":"SFWB","drives":{}}`))
	f.Add([]byte(`{"version":1,"group":"SFWB","drives":{"D1":{"vendor":"I","rolling":{"last_day":3},"consecutive":1}}}`))
	f.Add([]byte(`{"version":1,"group":"SFWB","drives":{"D1":{"vendor":"I","quarantine":{"SerialNumber":"D1","Day":4,"Reason":3}}},"unknown_firmware":{"I":[{"version":"F1","code":1}]}}`))
	f.Add(genuine.Bytes()[:genuine.Len()/2]) // torn checkpoint
	f.Add([]byte(`{"version":1,"group":"SFWB","drives":{"":{}}}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(fuzzModel(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadState(bytes.NewReader(data)); err != nil {
			return // rejected cleanly: the only acceptable failure mode
		}
		if err := s.SaveState(bytes.NewBuffer(nil)); err != nil {
			t.Fatalf("accepted state cannot be saved again: %v", err)
		}
		for _, sn := range s.Drives() {
			s.Explain(sn)
		}
	})
}

// TestOverflowingCumulateQuarantinesDrive: one drive reports W counter
// 0 (not a feature of the model's group) at 1.5e308 on its first three
// days, so every record is finite but its running W cumulate overflows
// to +Inf. ObserveDay and ReplayFrame must quarantine that drive as
// bad-value; the scorer's state must still save and load; and every
// other drive's assessments must stay bit-identical.
func TestOverflowingCumulateQuarantinesDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	clean := dayBatches(fleet, "I")
	sn := clean[0][0].SerialNumber
	poisoned := make([][]dataset.Record, len(clean))
	left := 3
	for d, batch := range clean {
		poisoned[d] = append([]dataset.Record(nil), batch...)
		for i := range poisoned[d] {
			if poisoned[d][i].SerialNumber == sn && left > 0 {
				r := poisoned[d][i].Clone()
				r.WCounts[0] = 1.5e308
				poisoned[d][i] = r
				left--
			}
		}
	}
	if left > 0 {
		t.Fatalf("drive %s has fewer than 3 records", sn)
	}
	mk := func() *Scorer {
		s, err := New(model, Options{Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	others := func(as []Assessment) []Assessment {
		var out []Assessment
		for _, a := range as {
			if a.SerialNumber != sn {
				out = append(out, a)
			}
		}
		return out
	}
	check := func(path string, s *Scorer) {
		t.Helper()
		e, ok := s.Quarantined(sn)
		if !ok || e.Reason != QuarantineBadValue || !strings.Contains(e.Err, "cumulate overflowed") {
			t.Fatalf("%s: ledger entry %+v, %v; want bad-value from the overflowed cumulate", path, e, ok)
		}
		var buf bytes.Buffer
		if err := s.SaveState(&buf); err != nil {
			t.Fatalf("%s: SaveState: %v", path, err)
		}
		saved := append([]byte(nil), buf.Bytes()...)
		restored := mk()
		if err := restored.LoadState(&buf); err != nil {
			t.Fatalf("%s: LoadState: %v", path, err)
		}
		var again bytes.Buffer
		if err := restored.SaveState(&again); err != nil {
			t.Fatalf("%s: SaveState after LoadState: %v", path, err)
		}
		if !bytes.Equal(again.Bytes(), saved) {
			t.Fatalf("%s: state does not round-trip", path)
		}
	}

	want := others(runDays(t, mk(), clean))
	s := mk()
	if err := sameAssessments(others(runDays(t, s, poisoned)), want); err != nil {
		t.Fatalf("ObserveDay, other drives: %v", err)
	}
	check("ObserveDay", s)

	half := len(clean) / 2
	replay := func(batches [][]dataset.Record) (*Scorer, ReplayStats, []Assessment) {
		d := dataset.New()
		for _, batch := range batches[:half] {
			for i := range batch {
				if err := d.Append(batch[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		f, err := dataset.FrameFromDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		s := mk()
		stats, err := s.ReplayFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		return s, stats, others(runDays(t, s, batches[half:]))
	}
	_, _, want = replay(clean)
	s, stats, got := replay(poisoned)
	if stats.Quarantined != 1 {
		t.Fatalf("replay stats %+v, want the overflowing drive quarantined", stats)
	}
	if err := sameAssessments(got, want); err != nil {
		t.Fatalf("ReplayFrame, other drives: %v", err)
	}
	check("ReplayFrame", s)
}
