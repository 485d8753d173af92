package mfpa

// End-to-end integration test across the whole stack: simulate a fleet,
// train per-vendor models through the fleet service, publish envelopes,
// load them into client agents, and verify the agents catch failing
// drives on live telemetry — the complete loop of the paper's Fig. 1.

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/fleetops"
	"repro/internal/modelio"
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
	// training cutoff; the agent must alarm on most of them before
	// death and stay quiet on healthy machines.
	ag, err := agent.New(deployed, agent.Options{AlarmAfter: 2, Explain: true})
	if err != nil {
		t.Fatal(err)
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
				as, err := ag.Observe(series.Records[i])
				if err != nil {
					t.Fatal(err)
				}
				if as.Alarmed {
					caught++
					if len(as.TopFactors) == 0 {
						t.Error("alarm without explanation despite Explain option")
					}
					break
				}
			}
		case truth.Kind == "healthy" && healthySeen < 60:
			healthySeen++
			for i := range series.Records {
				as, err := ag.Observe(series.Records[i])
				if err != nil {
					t.Fatal(err)
				}
				if as.Alarmed {
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
		t.Fatalf("agent caught %d of %d post-cutoff failures", caught, futureFaulty)
	}
	if healthySeen > 0 && float64(healthyAlarmed)/float64(healthySeen) > 0.1 {
		t.Fatalf("agent alarmed on %d of %d healthy drives", healthyAlarmed, healthySeen)
	}
}
