package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/simfleet"
)

// TestTrainSetWorkersBitIdentical checks that running the calibration
// folds beside the final fit changes nothing: for every algorithm, the
// threshold, the held-out evaluation and the marshalled model are the
// same at one and at four workers.
func TestTrainSetWorkersBitIdentical(t *testing.T) {
	// A fleet small enough for CNN_LSTM to train twice quickly, even
	// under the race detector.
	scfg := simfleet.TinyConfig()
	scfg.Days = 30
	scfg.FailureScale = 0.01
	scfg.HealthyPerFaulty = 2
	fleet, err := simfleet.SimulateFrame(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range core.Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			cfg := core.DefaultConfig("I")
			cfg.Algorithm = algo
			cfg.SeqLen = 2
			cfg.Workers = 1
			p1, err := core.PrepareFrame(fleet.Frame, fleet.Tickets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 4
			p4, err := p1.With(cfg)
			if err != nil {
				t.Fatal(err)
			}
			set, err := p1.BuildSampleSet()
			if err != nil {
				t.Fatal(err)
			}
			m1, rep1, err := core.TrainSet(p1, set)
			if err != nil {
				t.Fatal(err)
			}
			m4, rep4, err := core.TrainSet(p4, set)
			if err != nil {
				t.Fatal(err)
			}
			if m1.Threshold == 0.5 {
				t.Fatal("threshold left at the default: calibration did not run")
			}
			if m1.Threshold != m4.Threshold {
				t.Fatalf("threshold %v at 1 worker, %v at 4", m1.Threshold, m4.Threshold)
			}
			if e1, e4 := fmt.Sprintf("%+v", rep1.Eval), fmt.Sprintf("%+v", rep4.Eval); e1 != e4 {
				t.Fatalf("evaluation differs:\n1 worker:  %s\n4 workers: %s", e1, e4)
			}
			b1, err := modelio.Marshal(m1)
			if err != nil {
				t.Fatal(err)
			}
			// The config records Workers; compare everything else.
			m4.Config.Workers = m1.Config.Workers
			b4, err := modelio.Marshal(m4)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b4) {
				t.Fatal("marshalled models differ")
			}
		})
	}
}
