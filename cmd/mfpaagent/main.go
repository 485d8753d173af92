// Command mfpaagent is the on-machine monitor as a CLI: it loads a
// model envelope (from mfpatrain -save or fleetops publishing), replays
// telemetry (from mfpagen, CSV or the MFPAC binary container — the
// format is detected from the file's leading bytes) through the online
// scorer, and reports every alarm with its top contributing features.
//
// Usage:
//
//	mfpaagent -model model.json -data fleet.csv [-sn I-F000000] [-alarm-after 2] [-workers 0]
//	mfpaagent -model model.json -data fleet.csv -state scorer.state
//	mfpaagent -model model.json -data fleet.csv -chaos [-chaos-seed 1] [-chaos-rate 0.01]
//
// The telemetry is replayed day-major, as a monitor sees it arrive:
// each day's records of the model's vendor (or of the -sn drive) go
// through serve.Scorer in one batch, with -workers goroutines, under the
// model's own gap policy. A record that fails validation quarantines
// its drive instead of stopping the replay. -state restores the
// scorer's per-drive state from a checkpoint if the file exists,
// skips each drive's records up to the last day the checkpoint holds,
// and saves the state atomically at exit. -chaos adds a seeded fault
// campaign (corrupted records, transient batch faults, scoring-backend
// faults) to show the quarantine and degradation machinery; the same
// seed replays the same campaign.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/modelio"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpaagent: ")

	var (
		modelPath  = flag.String("model", "", "model envelope path (required)")
		dataPath   = flag.String("data", "", "telemetry path, CSV or MFPAC (required)")
		sn         = flag.String("sn", "", "replay only this drive (empty = all)")
		alarmAfter = flag.Int("alarm-after", 2, "consecutive flags before alarming")
		workers    = flag.Int("workers", 0, "scoring goroutines (0 = GOMAXPROCS, 1 = serial)")
		statePath  = flag.String("state", "", "scorer state checkpoint: loaded at start if present, saved atomically at exit")
		chaos      = flag.Bool("chaos", false, "run a seeded fault-injection campaign (corrupt records, transient and scoring faults)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "chaos campaign seed; the same seed replays the same faults")
		chaosRate  = flag.Float64("chaos-rate", 0.01, "per-record corruption probability for -chaos")
		verbose    = flag.Bool("v", false, "print every flagged observation, not just alarms")
	)
	flag.Parse()
	if *modelPath == "" || *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	model, err := modelio.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	df, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	// Either telemetry format loads into the columnar frame; the replay
	// batches records, so materialise them once.
	frame, err := dataset.ReadTelemetryWorkers(df, *workers)
	df.Close()
	if err != nil {
		log.Fatal(err)
	}
	data := frame.ToDataset()
	if *sn != "" {
		if _, ok := data.Series(*sn); !ok {
			log.Fatalf("drive %s not in %s", *sn, *dataPath)
		}
	}

	fmt.Printf("agent: %s/%s model, threshold %.3f, alarm after %d flags\n",
		model.TrainerName, model.Config.Group, model.Threshold, *alarmAfter)

	opts := serve.Options{Workers: *workers, AlarmAfter: *alarmAfter}
	var campaign *chaosCampaign
	if *chaos {
		campaign = newChaosCampaign(*chaosSeed, *chaosRate)
		opts.Faults = serve.FaultHooks{
			Observe: campaign.faults.Observe,
			Score:   campaign.faults.Score,
			Swap:    campaign.faults.Swap,
		}
	}
	sc, err := serve.New(model, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *statePath != "" {
		if _, serr := os.Stat(*statePath); serr == nil {
			if err := sc.LoadStateFile(*statePath); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("agent: restored state from %s\n", *statePath)
		}
	}

	// Day-major batches of the drives the model can score: its vendor's,
	// or the one -sn names, without the records a restored checkpoint
	// already holds.
	byDay := make(map[int][]dataset.Record)
	var days []int
	drives, seen := 0, 0
	data.Each(func(s *dataset.DriveSeries) {
		if *sn != "" && s.SerialNumber != *sn {
			return
		}
		if model.Config.Vendor != "" && s.Vendor != model.Config.Vendor {
			return
		}
		drives++
		last, ok := sc.LastDay(s.SerialNumber)
		for i := range s.Records {
			d := s.Records[i].Day
			if ok && d <= last {
				seen++
				continue
			}
			if len(byDay[d]) == 0 {
				days = append(days, d)
			}
			byDay[d] = append(byDay[d], s.Records[i])
		}
	})
	sort.Ints(days)
	if seen > 0 {
		fmt.Printf("agent: skipped %d records the checkpoint already holds\n", seen)
	}

	alarmed := make(map[string]bool)
	scored, flagged, dropped := 0, 0, 0
	quarantined, skipped, degradedRows := 0, 0, 0
	for _, day := range days {
		batch := byDay[day]
		if campaign != nil {
			var clog []faultinject.Corruption
			batch, clog = campaign.corruptor.Corrupt(batch)
			campaign.corrupted += len(clog)
		}
		var as []serve.Assessment
		var st serve.SweepStats
		for attempt := 0; ; attempt++ {
			as, st, err = sc.ObserveDay(batch)
			if err == nil || attempt >= 3 || !faultinject.IsTransient(err) {
				break
			}
			if campaign != nil {
				campaign.retries++
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		quarantined += st.Quarantined
		skipped += st.Skipped
		degradedRows += st.Degraded
		for i := range as {
			a := &as[i]
			if a.Dropped {
				dropped++
				continue
			}
			if a.Quarantined {
				continue
			}
			scored++
			if a.Flagged {
				flagged++
				if *verbose {
					fmt.Printf("%s day %d: P=%.3f flagged (%d consecutive)\n",
						a.SerialNumber, a.Day, a.Probability, a.ConsecutiveFlags)
				}
			}
			if a.Alarmed && !alarmed[a.SerialNumber] {
				alarmed[a.SerialNumber] = true
				fmt.Printf("%s day %d: ALARM P=%.3f", a.SerialNumber, a.Day, a.Probability)
				for _, f := range sc.Explain(a.SerialNumber) {
					fmt.Printf("  %s+%.3f", f.Feature, f.Contribution)
				}
				if w, ok := sc.Window(a.SerialNumber); ok && w.Days > 1 {
					fmt.Printf("  [%dd window: %.0f W/d, %.0f B/d, media err +%.0f]",
						w.Days, w.WPerDay, w.BPerDay, w.MediaErrGrowth)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("%d drives scanned over %d days: %d scored (%d flagged), %d dropped, %d quarantined, %d alarms\n",
		drives, len(days), scored, flagged, dropped, len(sc.QuarantineReasons()), len(alarmed))
	if campaign != nil {
		observe, score, swap := campaign.faults.Fired()
		fmt.Printf("chaos: %d records corrupted, %d observe faults (%d retried), %d score faults, %d swap faults\n",
			campaign.corrupted, observe, campaign.retries, score, swap)
		fmt.Printf("chaos: %d records quarantined their drive, %d skipped while quarantined, %d rows scored degraded\n",
			quarantined, skipped, degradedRows)
		if *verbose {
			for _, e := range sc.QuarantineReasons() {
				fmt.Printf("  %s day %d: %s (%s)\n", e.SerialNumber, e.Day, e.Reason, e.Err)
			}
		}
	}
	if *statePath != "" {
		if err := sc.SaveStateFile(*statePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agent: state checkpointed to %s\n", *statePath)
	}
}

// chaosCampaign bundles the seeded injectors for a -chaos run.
type chaosCampaign struct {
	corruptor *faultinject.RecordCorruptor
	faults    *faultinject.ScorerFaults
	corrupted int
	retries   int
}

func newChaosCampaign(seed int64, rate float64) *chaosCampaign {
	return &chaosCampaign{
		corruptor: faultinject.NewRecordCorruptor(faultinject.CorruptorConfig{Seed: seed, Rate: rate}),
		faults: faultinject.NewScorerFaults(faultinject.ScorerConfig{
			Seed: seed, ObserveP: 0.02, ScoreP: 0.02,
		}),
	}
}
