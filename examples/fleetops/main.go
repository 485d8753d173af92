// Fleetops: the operations scenario behind the paper's Figs. 12/16 —
// a fleet service owns the per-vendor models, re-iterates them on the
// paper's two-month cadence using only data visible at each date, and
// publishes each iteration for the client agents. Run against the
// drifting fleet, the history shows why iteration matters.
//
//	go run ./examples/fleetops
package main

import (
	"fmt"
	"log"

	"repro/internal/fleetops"
	"repro/internal/simfleet"
)

func main() {
	log.SetFlags(0)

	// The nine-month fleet whose background Windows-event rates drift
	// after day 165 (an OS update).
	cfg := simfleet.DriftConfig()
	cfg.FailureScale = 0.08
	fleet, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d drives, %d records, drift begins day %d\n\n",
		fleet.Frame.Drives(), fleet.Frame.Len(), cfg.DriftStartDay)

	svc, err := fleetops.New(fleetops.Options{IterationDays: 60})
	if err != nil {
		log.Fatal(err)
	}

	// Walk the calendar in 30-day review steps; the service decides
	// when each vendor's model is due.
	fmt.Println("day   action")
	for today := 100; today <= cfg.Days-1; today += 30 {
		retrained, err := svc.Step(fleet.Frame, fleet.Tickets, []string{"I"}, today)
		if err != nil {
			log.Fatal(err)
		}
		if len(retrained) > 0 {
			hist := svc.History("I")
			last := hist[len(hist)-1]
			fmt.Printf("%3d   re-iterated vendor I (#%d): TPR %.4f FPR %.4f (threshold %.3f, %d train samples)\n",
				today, len(hist), last.Eval.TPR(), last.Eval.FPR(), last.Threshold, last.TrainSamples)

			blob, err := svc.Publish("I")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("      published %.1f KB model envelope to clients\n", float64(len(blob))/1024)
		} else {
			fmt.Printf("%3d   model fresh; no action\n", today)
		}
	}

	fmt.Println("\nEach iteration sees only telemetry and tickets visible at its")
	fmt.Println("date, so the service never trains on the future — and the 60-day")
	fmt.Println("cadence keeps the model ahead of the drift that inflates FPR in")
	fmt.Println("Fig 12 when iteration is skipped.")
}
