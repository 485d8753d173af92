package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/mltest"
	"repro/internal/smartattr"
)

func smartVector(healthy bool) []float64 {
	x := make([]float64, smartattr.Count)
	x[smartattr.AvailableSpare.Index()] = 100
	x[smartattr.CompositeTemperature.Index()] = 310
	if !healthy {
		x[smartattr.MediaErrors.Index()] = 50
	}
	return x
}

func TestThresholdDetector(t *testing.T) {
	var d ThresholdDetector
	if got := d.PredictProba(smartVector(true)); got != 0 {
		t.Fatalf("healthy vector scored %g", got)
	}
	// Media errors carry no vendor threshold, so even a degraded drive
	// escapes the classic detector until its critical warning fires —
	// the Section II 3–10% TPR behaviour.
	if got := d.PredictProba(smartVector(false)); got != 0 {
		t.Fatalf("media errors alone scored %g, want 0", got)
	}
	alarmed := smartVector(false)
	alarmed[smartattr.CriticalWarning.Index()] = 1
	if got := d.PredictProba(alarmed); got != 1 {
		t.Fatalf("critical warning scored %g, want 1", got)
	}
	lowSpare := smartVector(true)
	lowSpare[smartattr.AvailableSpare.Index()] = 4
	if got := d.PredictProba(lowSpare); got != 1 {
		t.Fatalf("depleted spare scored %g, want 1", got)
	}
	if got := d.PredictProba([]float64{1, 2}); got != 0 {
		t.Fatalf("short vector scored %g, want 0", got)
	}
}

func TestAllBaselinesTrainAndScore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var samples []ml.Sample
	for i := 0; i < 120; i++ {
		healthy := i%2 == 0
		x := smartVector(healthy)
		x[smartattr.MediaErrors.Index()] += r.Float64()
		x[smartattr.PowerOnHours.Index()] = 1000 + 10*r.Float64()
		y := 1
		if healthy {
			y = 0
		}
		samples = append(samples, ml.Sample{X: x, Y: y, Day: i, SN: "sn"})
	}
	for _, b := range All() {
		if b.Name == "" || b.Citation == "" {
			t.Errorf("baseline missing metadata: %+v", b)
		}
		clf, err := b.NewTrainer(1).Train(mltest.View(samples))
		if err != nil {
			t.Errorf("baseline %s: %v", b.Name, err)
			continue
		}
		correct := 0
		for _, s := range samples {
			if ml.Predict(clf, s.X) == s.Y {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(samples)); acc < 0.9 {
			t.Errorf("baseline %s training accuracy %g on separable data", b.Name, acc)
		}
	}
}

func TestErrorLogRFRejectsNarrowVectors(t *testing.T) {
	samples := []ml.Sample{
		{X: []float64{1, 2}, Y: 0},
		{X: []float64{3, 4}, Y: 1},
	}
	if _, err := (&errorLogRF{}).Train(mltest.View(samples)); err == nil {
		t.Fatal("narrow vectors accepted")
	}
}

// TestErrorLogRFMatchesForestOnErrorLogColumns pins ErrorLog-RF to its
// definition: a forest trained on a set holding only the five
// error-log columns scores the masked rows exactly as ErrorLog-RF
// scores the full rows, per row and through the batch kernel.
func TestErrorLogRFMatchesForestOnErrorLogColumns(t *testing.T) {
	cols := []int{
		smartattr.CriticalWarning.Index(),
		smartattr.AvailableSpare.Index(),
		smartattr.UnsafeShutdowns.Index(),
		smartattr.MediaErrors.Index(),
		smartattr.ErrorLogEntries.Index(),
	}
	r := rand.New(rand.NewSource(3))
	var full, masked []ml.Sample
	for i := 0; i < 400; i++ {
		x := make([]float64, smartattr.Count)
		for j := range x {
			x[j] = r.NormFloat64() * 100
		}
		y := 0
		if x[smartattr.MediaErrors.Index()]+x[smartattr.ErrorLogEntries.Index()]/2 > 40 {
			y = 1
		}
		m := make([]float64, len(cols))
		for j, c := range cols {
			m[j] = x[c]
		}
		full = append(full, ml.Sample{X: x, Y: y, Day: i, SN: "sn"})
		masked = append(masked, ml.Sample{X: m, Y: y, Day: i, SN: "sn"})
	}
	var errorLog Baseline
	for _, b := range All() {
		if b.Name == "ErrorLog-RF" {
			errorLog = b
		}
	}
	fullSet, err := ml.FromSamples(full)
	if err != nil {
		t.Fatal(err)
	}
	maskedSet, err := ml.FromSamples(masked)
	if err != nil {
		t.Fatal(err)
	}
	got, err := errorLog.NewTrainer(5).Train(fullSet.All())
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&forest.Trainer{Trees: 100, MaxDepth: 10, Seed: 5}).Train(maskedSet.All())
	if err != nil {
		t.Fatal(err)
	}
	gotBatch := ml.BatchScoresView(got, fullSet.All(), 0)
	wantBatch := ml.BatchScoresView(want, maskedSet.All(), 0)
	for i := range full {
		g, w := got.PredictProba(full[i].X), want.PredictProba(masked[i].X)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("row %d: ErrorLog-RF %v, forest on error-log columns %v", i, g, w)
		}
		if math.Float64bits(gotBatch[i]) != math.Float64bits(wantBatch[i]) || math.Float64bits(gotBatch[i]) != math.Float64bits(g) {
			t.Fatalf("row %d: batch scores %v / %v, per-row %v", i, gotBatch[i], wantBatch[i], g)
		}
	}
}
