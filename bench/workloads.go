package main

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/simfleet"
)

// sizes fixes the inputs of every workload. The seed reaches only the
// simulator and the record corruptor.
type sizes struct {
	// fleet is the simulated fleet retrain trains on.
	fleet simfleet.Config
	// served is the fleet the serving workloads score, and model the
	// fleet their deployed model was trained on; both hold only the
	// serving vendor.
	served, model simfleet.Config
	// window is how many of the served fleet's last days the serving
	// workloads score; everything before is replayed history.
	window int
	// swapAfter is how many window days are served before the model is
	// swapped.
	swapAfter int
	// corruptRate is the per-record corruption probability of the
	// serving feed.
	corruptRate float64
	// repro is the fleet of paper_repro.
	repro simfleet.Config
}

// fullSizes are the benchmark's sizes: each workload's set-up and
// warm-up fit in a few seconds on two cores, a run stays near 1 GB of
// resident memory, and a served day carries about 2,300 records.
func fullSizes(seed int64) sizes {
	sz := sizes{
		fleet:       scaled(simfleet.DefaultConfig(), seed, 0.1),
		served:      vendorOnly(scaled(simfleet.DefaultConfig(), seed, 0.2), serveVendor),
		model:       vendorOnly(scaled(simfleet.DefaultConfig(), modelSeed, 0.1), serveVendor),
		window:      100,
		swapAfter:   50,
		corruptRate: 1e-4,
		repro:       scaled(simfleet.DefaultConfig(), seed, 0.02),
	}
	return sz
}

// tinySizes run every workload in well under a second, for the smoke
// test.
func tinySizes(seed int64) sizes {
	tiny := simfleet.TinyConfig()
	return sizes{
		fleet:  scaled(tiny, seed, tiny.FailureScale),
		served: vendorOnly(scaled(tiny, seed, tiny.FailureScale), serveVendor),
		model:  vendorOnly(scaled(tiny, modelSeed, tiny.FailureScale), serveVendor),
		window: 20, swapAfter: 10,
		// The tiny fleet is small enough that the full rate would
		// rarely corrupt anything; the gates need a few touched drives.
		corruptRate: 2e-3,
		repro:       scaled(tiny, seed, tiny.FailureScale),
	}
}

func scaled(cfg simfleet.Config, seed int64, failureScale float64) simfleet.Config {
	cfg.Seed = seed
	cfg.FailureScale = failureScale
	return cfg
}

// vendorOnly restricts a fleet to one vendor.
func vendorOnly(cfg simfleet.Config, vendor string) simfleet.Config {
	for _, v := range simfleet.DefaultVendors() {
		if v.Name == vendor {
			cfg.Vendors = []simfleet.VendorSpec{v}
		}
	}
	return cfg
}

// workloads are the benchmark's workloads in run order.
var workloads = []workload{
	{name: "retrain", setup: setupRetrain, tail: 0,
		why: "the operator's periodic model iteration: read fleet telemetry, train every vendor's model, marshal them"},
	{name: "serve_steady", setup: setupSteady, tail: 95,
		why: "the online hot path: one scorer serving 100 fleet days in order, with corrupt records and a mid-window model swap"},
	{name: "serve_restart", setup: setupRestart, tail: 75,
		why: "crash recovery: read history and model from disk, rebuild a scorer, replay history, serve the first day"},
	{name: "paper_repro", setup: setupRepro, tail: 0,
		why: "the researcher's path: experiments fig9, fig18, gaps and ratio on a freshly simulated fleet"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// registries maps each simulated vendor to its firmware ladder, so
// firmware encoding does not depend on arrival order.
func registries(cfg simfleet.Config) map[string]*firmware.Registry {
	regs := make(map[string]*firmware.Registry, len(cfg.Vendors))
	for _, v := range cfg.Vendors {
		regs[v.Name] = v.Firmware
	}
	return regs
}

// writeFrame stores f as an MFPAC file and returns its size in bytes.
func writeFrame(path string, f *dataset.Frame) (int64, error) {
	file, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	bw := bufio.NewWriter(file)
	if err := dataset.WriteTelemetry(bw, f, dataset.FormatMFPAC); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	info, err := file.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), file.Close()
}

// readFrame loads an MFPAC (or CSV) telemetry file.
func readFrame(path string) (*dataset.Frame, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return dataset.ReadTelemetry(file)
}
