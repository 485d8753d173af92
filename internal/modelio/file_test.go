package modelio

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/core"
)

// TestSaveFileLoadFileRoundTrip: the atomic file path preserves the
// envelope exactly — the file bytes match Save's stream bytes and the
// reloaded model scores identically.
func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	m := trainedModel(t, core.AlgoRF)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Save appends the encoder's trailing newline.
	if string(got) != string(want)+"\n" {
		t.Fatal("SaveFile bytes differ from Marshal bytes")
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, m.Width)
	for i := 0; i < 50; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if a, b := m.Classifier.PredictProba(x), loaded.Classifier.PredictProba(x); a != b {
			t.Fatalf("sample %d: reloaded model scores %v, original %v", i, b, a)
		}
	}
}

// TestSaveFileCrashKeepsOldModel: a save that dies before publish
// leaves the previously deployed envelope loadable.
func TestSaveFileCrashKeepsOldModel(t *testing.T) {
	m, next := trainedModel(t, core.AlgoRF), trainedModel(t, core.AlgoGBDT)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := atomicio.SetHooks(&atomicio.Hooks{
		BeforeRename: func(string) error { return os.ErrPermission },
	})
	err = SaveFile(path, next)
	restore()
	if err == nil {
		t.Fatal("blocked publish not surfaced")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("failed save disturbed the deployed envelope")
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("deployed envelope unloadable after failed save: %v", err)
	}
}
