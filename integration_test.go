package mfpa

// End-to-end integration test across the whole stack: simulate a fleet,
// train per-vendor models through the fleet service, publish envelopes,
// load them into the online scorer, and verify it catches failing
// drives on live telemetry — the complete loop of the paper's Fig. 1.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fleetops"
	"repro/internal/modelio"
	"repro/internal/serve"
	"repro/internal/simfleet"
)

func TestFullDeploymentLoop(t *testing.T) {
	cfg := simfleet.TinyConfig()
	cfg.Days = 120
	cfg.FailureScale = 0.05
	fleet, err := simfleet.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet side: the service trains vendor I as of day 100.
	svc, err := fleetops.New(fleetops.Options{IterationDays: 60})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := dataset.FrameFromDataset(fleet.Data)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Train(frame, fleet.Tickets, "I", 100)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Eval.TPR() < 0.5 {
		t.Fatalf("service-trained model TPR = %g", rec.Eval.TPR())
	}

	// Distribution: publish → load, as the update channel would.
	blob, err := svc.Publish("I")
	if err != nil {
		t.Fatal(err)
	}
	deployed, err := modelio.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Client side: replay raw telemetry of drives that fail *after* the
	// training cutoff, a record at a time; the scorer must alarm on most
	// of them before death, explain each alarm, and stay quiet on
	// healthy machines.
	sc, err := serve.New(deployed, serve.Options{AlarmAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	alarmed := func(rec dataset.Record) bool {
		as, _, err := sc.ObserveDay([]dataset.Record{rec})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			if a.Alarmed {
				return true
			}
		}
		return false
	}
	var futureFaulty, caught int
	var healthySeen, healthyAlarmed int
	for sn, truth := range fleet.Truth {
		if truth.Vendor != "I" {
			continue
		}
		series, ok := fleet.Data.Series(sn)
		if !ok {
			continue
		}
		switch {
		case truth.Kind == "faulty" && truth.FailDay > 100:
			futureFaulty++
			for i := range series.Records {
				if alarmed(series.Records[i]) {
					caught++
					if len(sc.Explain(sn)) == 0 {
						t.Error("alarm without explanation")
					}
					break
				}
			}
		case truth.Kind == "healthy" && healthySeen < 60:
			healthySeen++
			for i := range series.Records {
				if alarmed(series.Records[i]) {
					healthyAlarmed++
					break
				}
			}
		}
	}
	if futureFaulty == 0 {
		t.Skip("no post-cutoff failures in this tiny fleet")
	}
	if rate := float64(caught) / float64(futureFaulty); rate < 0.6 {
		t.Fatalf("scorer caught %d of %d post-cutoff failures", caught, futureFaulty)
	}
	if healthySeen > 0 && float64(healthyAlarmed)/float64(healthySeen) > 0.1 {
		t.Fatalf("scorer alarmed on %d of %d healthy drives", healthyAlarmed, healthySeen)
	}
}
