// Lookahead: the client-side early-warning scenario — how many days
// before an SSD dies can MFPA raise the alarm (Fig. 19), and what does
// live scoring of one drive's record stream look like?
//
//	go run ./examples/lookahead
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/features"
)

func main() {
	log.SetFlags(0)

	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.FailureScale = 0.08
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Prepare once and train on the preparation: the probes below read
	// its frame, and its extractor encodes firmware versions exactly as
	// training did.
	prep, err := mfpa.Prepare(fleet.Data, fleet.Tickets, mfpa.DefaultConfig("I"))
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := core.Train(prep)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep the lookahead window: probe each faulty drive exactly N
	// days before its labelled failure.
	fmt.Println("== TPR vs lookahead window (Fig 19) ==")
	fmt.Printf("%-10s %8s %8s\n", "N (days)", "TPR", "probes")
	for n := 1; n <= 21; n += 4 {
		probes := features.PositiveSamplesAt(prep.Frame, prep.Labels, prep.Extractor, n, 1)
		flagged := 0
		for _, p := range probes {
			if model.Predict(p.X) >= model.Threshold {
				flagged++
			}
		}
		tpr := 0.0
		if len(probes) > 0 {
			tpr = float64(flagged) / float64(len(probes))
		}
		bar := strings.Repeat("#", int(tpr*30))
		fmt.Printf("%-10d %7.2f%% %8d  %s\n", n, tpr*100, len(probes), bar)
	}

	// Live scoring: replay one faulty drive's record stream through the
	// model, as the on-client agent would.
	var faultySN string
	drive := -1
	sns := make([]string, 0, len(prep.Labels))
	for sn := range prep.Labels {
		sns = append(sns, sn)
	}
	sort.Strings(sns)
	for _, sn := range sns {
		if i, ok := prep.Frame.DriveIndex(sn); ok {
			faultySN, drive = sn, i
			break
		}
	}
	if drive < 0 {
		log.Fatal("no labelled faulty drive with telemetry")
	}
	fmt.Printf("\n== Live scoring of drive %s (fails day %d) ==\n", faultySN, prep.Labels[faultySN].FailDay)
	fmt.Printf("%-6s %-12s %s\n", "Day", "P(faulty)", "")
	d := prep.Frame.Drive(drive)
	x := make([]float64, 0, prep.Extractor.Width())
	for row := max(int(d.Start), int(d.End)-12); row < int(d.End); row++ {
		x = prep.Extractor.AppendFrameRow(prep.Frame, drive, row, x[:0])
		p := model.Predict(x)
		marker := ""
		if p >= model.Threshold {
			marker = "  << ALARM"
		}
		fmt.Printf("%-6d %-12.4f %s%s\n", prep.Frame.Day(row), p, strings.Repeat("*", int(p*20)), marker)
	}
}
