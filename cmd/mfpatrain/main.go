// Command mfpatrain trains and evaluates one MFPA failure predictor,
// either on a freshly simulated fleet or on CSVs produced by mfpagen.
//
// Usage:
//
//	mfpatrain [-vendor I] [-group SFWB] [-algo RF] [-seed 1]
//	          [-scale 0.1] [-data fleet.csv -tickets tickets.csv]
//	          [-bins 256] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -data accepts either telemetry format mfpagen writes (CSV or the
// MFPAC binary container); the format is detected from the file's
// leading bytes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/modelio"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpatrain: ")

	var (
		vendor      = flag.String("vendor", "I", "vendor to train on (empty = all)")
		groupName   = flag.String("group", "SFWB", "feature group: SFWB|SFW|SFB|SF|S|W|B")
		algoName    = flag.String("algo", "RF", "algorithm: Bayes|SVM|RF|GBDT|CNN_LSTM")
		seed        = flag.Int64("seed", 1, "pipeline and fleet seed")
		scale       = flag.Float64("scale", 0.1, "failure-count scale when simulating")
		dataPath    = flag.String("data", "", "telemetry file from mfpagen, CSV or MFPAC (simulates when empty)")
		ticketsPath = flag.String("tickets", "", "tickets CSV from mfpagen (required with -data)")
		theta       = flag.Int("theta", 7, "failure-time threshold θ in days")
		posWindow   = flag.Int("window", 7, "positive sample window in days")
		ratio       = flag.Float64("ratio", 3, "negative under-sampling ratio")
		savePath    = flag.String("save", "", "write the trained model envelope to this path (optional)")
		workers     = flag.Int("workers", 0, "worker goroutines for simulation and pipeline stages (0 = GOMAXPROCS, 1 = serial; output is identical)")
		bins        = flag.Int("bins", 0, "histogram training engine bin budget for RF/GBDT (0 = 256, max 256)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile  = flag.String("memprofile", "", "write a heap profile taken after training to this path")
	)
	flag.Parse()
	if *bins < 0 {
		log.Fatalf("-bins %d: the bin budget must be 0..256 (0 = 256)", *bins)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	group, ok := features.ParseGroup(*groupName)
	if !ok {
		log.Fatalf("unknown feature group %q", *groupName)
	}

	var (
		frame *dataset.Frame
		store *ticket.Store
	)
	cfg := core.DefaultConfig(*vendor)
	cfg.Group = group
	cfg.Algorithm = core.Algorithm(*algoName)
	cfg.Seed = *seed
	cfg.Theta = *theta
	cfg.PositiveWindowDays = *posWindow
	cfg.NegativeRatio = *ratio
	cfg.Workers = *workers
	cfg.Bins = *bins
	// Reject bad -ratio, -window, -theta or -algo values before
	// anything is simulated or read.
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	if *dataPath != "" {
		if *ticketsPath == "" {
			log.Fatal("-tickets is required with -data")
		}
		var err error
		frame, err = readTelemetry(*dataPath, *workers)
		if err != nil {
			log.Fatal(err)
		}
		store, err = readTickets(*ticketsPath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		fleetCfg := simfleet.DefaultConfig()
		fleetCfg.Seed = *seed
		fleetCfg.FailureScale = *scale
		fleetCfg.Workers = *workers
		fleet, err := simfleet.SimulateFrame(fleetCfg)
		if err != nil {
			log.Fatal(err)
		}
		frame, store = fleet.Frame, fleet.Tickets
		cfg.Registries = make(map[string]*firmware.Registry)
		for _, v := range fleet.Config.Vendors {
			cfg.Registries[v.Name] = v.Firmware
		}
		fmt.Printf("simulated fleet: %d drives, %d records, %d faulty\n",
			frame.Drives(), frame.Len(), fleet.FaultyCount())
	}

	model, report, err := core.TrainOnFrame(frame, store, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nMFPA %s / %s / vendor %s\n", cfg.Group, model.TrainerName, orAll(*vendor))
	fmt.Printf("  records after cleaning: %d (dropped %d drives, filled %d records)\n",
		report.Prepared.RecordCount, report.Prepared.CleanStats.DrivesDropped, report.Prepared.CleanStats.RecordsFilled)
	fmt.Printf("  labelled failures:      %d (θ fallbacks %d)\n",
		report.Prepared.LabelStats.Labelled, report.Prepared.LabelStats.Fallbacks)
	fmt.Printf("  train samples:          %d (%d positive)\n", report.TrainSamples, report.TrainPos)
	fmt.Printf("  test samples:           %d (%d positive)\n", report.TestSamples, report.TestPos)
	fmt.Printf("  decision threshold:     %.3f\n", model.Threshold)
	fmt.Printf("\n  TPR=%.4f FPR=%.4f ACC=%.4f AUC=%.4f PDR=%.4f\n",
		report.Eval.TPR(), report.Eval.FPR(), report.Eval.Accuracy(), report.Eval.AUC, report.Eval.PDR())
	fmt.Printf("  drive-level: TPR=%.4f FPR=%.4f\n",
		report.Eval.DriveConfusion.TPR(), report.Eval.DriveConfusion.FPR())
	fmt.Printf("  timings: clean=%v label=%v sample=%v train=%v eval=%v\n",
		report.Prepared.CleanTime, report.Prepared.LabelTime, report.SampleTime, report.TrainTime, report.EvalTime)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // settle allocations so the heap profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  heap profile written to %s\n", *memprofile)
	}

	if *savePath != "" {
		if err := modelio.SaveFile(*savePath, model); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  model envelope saved to %s\n", *savePath)
	}
}

func orAll(v string) string {
	if v == "" {
		return "(all)"
	}
	return v
}

// readTelemetry loads a telemetry file of either format — the MFPAC
// binary container is detected by its magic bytes and decoded
// block-parallel, anything else goes through the CSV compat reader.
func readTelemetry(path string, workers int) (*dataset.Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadTelemetryWorkers(f, workers)
}

func readTickets(path string) (*ticket.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ticket.ReadCSV(f)
}
