package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/simfleet"
)

// Each algorithm's model is trained on first use, once per test
// binary, on one shared tiny fleet: a test that needs only some
// algorithms does not pay for CNN_LSTM. Tests share the models
// read-only; TestMain fails the run if one changed.
var (
	sharedMu    sync.Mutex
	fleet       *simfleet.FrameResult
	shared      = make(map[core.Algorithm]*core.Model)
	sharedBytes = make(map[core.Algorithm][]byte)
)

// trainedModel returns algo's shared model, training it on first use.
func trainedModel(t *testing.T, algo core.Algorithm) *core.Model {
	t.Helper()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if m, ok := shared[algo]; ok {
		return m
	}
	if fleet == nil {
		cfg := simfleet.TinyConfig()
		cfg.FailureScale = 0.04
		f, err := simfleet.SimulateFrame(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fleet = f
	}
	pc := core.DefaultConfig("I")
	pc.Algorithm = algo
	if algo == core.AlgoCNNLSTM {
		pc.SeqLen = 3
	}
	m, _, err := core.TrainOnFrame(fleet.Frame, fleet.Tickets, pc)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	shared[algo], sharedBytes[algo] = m, b
	return m
}

// trainedModels returns every algorithm's shared model. The map is the
// caller's; the models are shared.
func trainedModels(t *testing.T) map[core.Algorithm]*core.Model {
	t.Helper()
	models := make(map[core.Algorithm]*core.Model)
	for _, algo := range core.Algorithms() {
		models[algo] = trainedModel(t, algo)
	}
	return models
}

// TestMain runs the tests, then checks that none of them changed a
// shared model that was trained.
func TestMain(m *testing.M) {
	code := m.Run()
	for algo, want := range sharedBytes {
		if got, err := Marshal(shared[algo]); err != nil || !bytes.Equal(got, want) {
			fmt.Fprintf(os.Stderr, "modelio: a test changed the shared %s model\n", algo)
			code = 1
		}
	}
	os.Exit(code)
}

func TestRoundTripAllAlgorithms(t *testing.T) {
	models := trainedModels(t)
	for algo, m := range models {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		restored, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", algo, err)
		}
		if restored.Threshold != m.Threshold {
			t.Errorf("%s: threshold %g != %g", algo, restored.Threshold, m.Threshold)
		}
		if restored.Config.Algorithm != algo {
			t.Errorf("%s: algorithm %q after round trip", algo, restored.Config.Algorithm)
		}
		if restored.Config.Group != m.Config.Group {
			t.Errorf("%s: group changed", algo)
		}
		// Scores must match bit-for-bit on arbitrary inputs.
		width := m.Width
		if algo == core.AlgoCNNLSTM {
			width = m.Width * m.Config.SeqLen
		}
		for trial := 0; trial < 10; trial++ {
			x := make([]float64, width)
			for i := range x {
				x[i] = float64((trial+1)*(i+3)%97) * 1.5
			}
			if got, want := restored.Predict(x), m.Predict(x); got != want {
				t.Fatalf("%s: prediction drift after round trip: %g vs %g", algo, got, want)
			}
		}
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	m := trainedModel(t, core.AlgoRF)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Width)
	if restored.Predict(x) != m.Predict(x) {
		t.Fatal("prediction drift")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"version":99,"algorithm":"RF","group":"SFWB","threshold":0.5,"payload":{}}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Unmarshal([]byte(`{"version":1,"algorithm":"RF","group":"NOPE","threshold":0.5,"payload":{}}`)); err == nil {
		t.Fatal("unknown group accepted")
	}
	if _, err := Unmarshal([]byte(`{"version":1,"algorithm":"RF","group":"SFWB","threshold":2,"payload":{}}`)); err == nil {
		t.Fatal("out-of-range threshold accepted")
	}
	if _, err := Unmarshal([]byte(`{"version":1,"algorithm":"XGB","group":"SFWB","threshold":0.5,"payload":{}}`)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Unmarshal([]byte(`{"version":1,"algorithm":"RF","group":"SFWB","threshold":0.5,"payload":{"Trees":[]}}`)); err == nil {
		t.Fatal("empty forest accepted")
	}
}

// TestBatchPredictionsSurviveRoundTrip asserts the flattened batch
// inference form is rebuilt after export/import: a restored RF or GBDT
// model still exposes ml.BatchClassifier and its batch scores are
// bit-exact against both the original model and the restored per-row
// path.
func TestBatchPredictionsSurviveRoundTrip(t *testing.T) {
	models := trainedModels(t)
	for _, algo := range []core.Algorithm{core.AlgoRF, core.AlgoGBDT} {
		m := models[algo]
		data, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		restored, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		rb, ok := restored.Classifier.(ml.BatchClassifier)
		if !ok {
			t.Fatalf("%s: restored model lost the batch fast path", algo)
		}
		xs := make([][]float64, 600) // straddles the kernel's block size
		for r := range xs {
			x := make([]float64, m.Width)
			for i := range x {
				x[i] = float64((r+1)*(i+3)%97) * 1.5
			}
			xs[r] = x
		}
		got := make([]float64, len(xs))
		rb.PredictProbaBatch(xs, got, 0)
		for i, x := range xs {
			if want := m.Predict(x); got[i] != want {
				t.Fatalf("%s: row %d: restored batch %v != original %v", algo, i, got[i], want)
			}
			if want := restored.Predict(x); got[i] != want {
				t.Fatalf("%s: row %d: restored batch %v != restored per-row %v", algo, i, got[i], want)
			}
		}
	}
}

// TestSaveBytesMatchMarshal pins the two write paths together: Save's
// buffered single-pass encoding must produce exactly Marshal's bytes
// plus the encoder's trailing newline, and the inline-payload envelope
// must match what decoding and re-encoding the RawMessage form yields.
func TestSaveBytesMatchMarshal(t *testing.T) {
	models := trainedModels(t)
	for algo, m := range models {
		data, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		if want := string(data) + "\n"; buf.String() != want {
			t.Fatalf("%s: Save bytes differ from Marshal", algo)
		}
		// The envelope's payload must round-trip through RawMessage
		// untouched: decode and re-marshal, compare bytes.
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		redone, err := json.Marshal(&env)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !bytes.Equal(data, redone) {
			t.Fatalf("%s: envelope is not a RawMessage fixed point", algo)
		}
	}
}
