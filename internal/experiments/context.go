// Package experiments regenerates every table and figure of the
// paper's evaluation from the simulated fleet: the RaSRF taxonomy
// (Table I), the dataset summary (Table VI), the observation figures
// (Figs. 2–6), the model studies (Figs. 9–19), and the overhead
// breakdown (Fig. 20), plus the ablation studies DESIGN.md calls out.
//
// Each experiment returns a typed result whose String method renders
// the same rows/series the paper reports, so `mfpareport` and the
// benchmark harness print directly comparable output.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/ml"
	"repro/internal/sampling"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

// Context owns the simulated fleets and three caches that let the
// experiments share work the way the paper's evaluation does: one
// preprocessed vendor-I dataset, then only the feature group or a
// modelling knob changes.
//
// Each cache keeps only what several experiments read:
//
//   - Preparation (clean, cumulate, label): vendor I's default
//     preparation of the context fleet runs once, and every feature
//     group and modelling knob is a core.(*Prepared).With view of it.
//     A config is such a view when its fleet, vendor and preparation
//     fields (gap policy, clean, cumulate, θ) match after defaulting.
//     Any other preparation — another vendor, gap policy, no cleaning,
//     daily counters, the θ fleet — is built for its one use and
//     dropped.
//   - Sample sets: the shared preparation's flat SFWB and S sets at the
//     default positive window are built once. Every other set is built
//     for its one training and dropped.
//   - Trained models are keyed by fleet and the defaulted config minus
//     Workers and Registries, which never change results within a
//     context. The memo keeps each model and its held-out evaluation,
//     never a TrainReport's test view, so it pins no sample set.
//
// The caches are read and written only outside training fan-outs (see
// trainAll), so a context is not safe for concurrent use. Fig20
// bypasses the caches: it reports what preparation costs.
type Context struct {
	// Cfg is the fleet configuration of the headline experiments.
	Cfg simfleet.Config
	// Fleet is the simulated population.
	Fleet *simfleet.Result

	// Registries maps vendor name to its firmware ladder, for
	// order-preserving label encoding.
	Registries map[string]*firmware.Registry

	// Workers bounds the fan-out of every parallelised stage the
	// experiments drive — pipeline preparation, independent model
	// trainings, grid search, feature selection — following the
	// repository convention (0 = GOMAXPROCS,
	// 1 = serial). It is seeded from the fleet config's Workers field
	// and never changes results, only wall-clock time.
	Workers int

	driftFleet      *simfleet.FrameResult
	slowTicketFleet *simfleet.FrameResult

	// frame is the fleet telemetry in columnar form, converted lazily;
	// every preparation of the context fleet runs on it.
	frame *dataset.Frame

	shared *preparation
	sets   map[features.Group]*ml.SampleSet
	models map[modelKey]fit
	work   work
}

// work counts the stages the caches exist to avoid; tests read it.
type work struct {
	// prepares counts PrepareFrame runs per vendor.
	prepares map[string]int
	// trained lists the config of every model trained, in order.
	trained []core.Config
}

// NewContext simulates the default experiment fleet. failureScale
// trades statistical resolution for runtime (the report uses 0.2, unit
// tests far less); seed fixes the fleet.
func NewContext(failureScale float64, seed int64) (*Context, error) {
	cfg := simfleet.DefaultConfig()
	cfg.FailureScale = failureScale
	cfg.Seed = seed
	return NewContextWith(cfg)
}

// NewContextWith simulates a fleet from an explicit configuration.
func NewContextWith(cfg simfleet.Config) (*Context, error) {
	fleet, err := simfleet.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	c := &Context{
		Cfg:        cfg,
		Fleet:      fleet,
		Registries: make(map[string]*firmware.Registry),
		Workers:    cfg.Workers,
		sets:       make(map[features.Group]*ml.SampleSet),
		models:     make(map[modelKey]fit),
		work:       work{prepares: make(map[string]int)},
	}
	for _, v := range fleet.Config.Vendors {
		c.Registries[v.Name] = v.Firmware
	}
	return c, nil
}

// PipelineConfig returns the paper's best pipeline configuration for
// one vendor, wired to this context's firmware registries.
func (c *Context) PipelineConfig(vendor string, group features.Group) core.Config {
	cfg := core.DefaultConfig(vendor)
	cfg.Group = group
	cfg.Registries = c.Registries
	cfg.Seed = c.Cfg.Seed
	cfg.Workers = c.Workers
	return cfg
}

// Prepared returns vendor's default preparation of the context fleet
// with group's extractor. Vendor I's is the shared preparation: it runs
// once, every group's Prepared shares its frame and labels, and
// repeated calls return the same *core.Prepared. Another vendor is
// prepared anew on each call.
func (c *Context) Prepared(vendor string, group features.Group) (*core.Prepared, error) {
	f, err := c.FleetFrame()
	if err != nil {
		return nil, err
	}
	cfg := c.PipelineConfig(vendor, group)
	if !c.sharesPreparation(f, cfg) {
		return c.prepareOn(f, c.Fleet.Tickets, cfg)
	}
	if c.shared == nil {
		p, err := c.prepareOn(f, c.Fleet.Tickets, cfg)
		if err != nil {
			return nil, err
		}
		c.shared = &preparation{base: p, groups: map[features.Group]*core.Prepared{group: p}}
	}
	return c.shared.group(group)
}

// prepare runs the data stages on the context fleet, uncached.
func (c *Context) prepare(cfg core.Config) (*core.Prepared, error) {
	f, err := c.FleetFrame()
	if err != nil {
		return nil, err
	}
	return c.prepareOn(f, c.Fleet.Tickets, cfg)
}

// prepareOn runs the data stages on an explicit fleet, uncached.
func (c *Context) prepareOn(f *dataset.Frame, tickets *ticket.Store, cfg core.Config) (*core.Prepared, error) {
	c.work.prepares[cfg.Vendor]++
	return core.PrepareFrame(f, tickets, cfg)
}

// FleetFrame returns (converting once) the fleet telemetry as a
// columnar frame — the input of the fused preprocessing pipeline.
func (c *Context) FleetFrame() (*dataset.Frame, error) {
	if c.frame != nil {
		return c.frame, nil
	}
	f, err := dataset.FrameFromDataset(c.Fleet.Data)
	if err != nil {
		return nil, err
	}
	c.frame = f
	return f, nil
}

// SampleSet returns the flat sample set of vendor/group on the default
// preparation, with the Prepared it was built from. Vendor I's SFWB and
// S sets are built once per context; any other set is built anew on
// each call.
func (c *Context) SampleSet(vendor string, group features.Group) (*ml.SampleSet, *core.Prepared, error) {
	p, err := c.Prepared(vendor, group)
	if err != nil {
		return nil, nil, err
	}
	s, err := c.sampleSet(p)
	if err != nil {
		return nil, nil, err
	}
	return s, p, nil
}

// SplitSet returns the chronological train/test split of a vendor/group
// as zero-copy views of its sample set.
func (c *Context) SplitSet(vendor string, group features.Group) (train, test ml.View, p *core.Prepared, err error) {
	set, p, err := c.SampleSet(vendor, group)
	if err != nil {
		return ml.View{}, ml.View{}, nil, err
	}
	train, test = sampling.SplitFractionView(set.All(), p.Config.TrainFrac)
	return train, test, p, nil
}

// DriftFleet simulates (once) the longer drifting fleet of the
// Figs. 12/16 time-period study.
func (c *Context) DriftFleet() (*simfleet.FrameResult, error) {
	if c.driftFleet != nil {
		return c.driftFleet, nil
	}
	cfg := simfleet.DriftConfig()
	cfg.FailureScale = c.Cfg.FailureScale
	cfg.Seed = c.Cfg.Seed
	fleet, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		return nil, err
	}
	c.driftFleet = fleet
	return fleet, nil
}

// VendorNames returns the simulated vendor names in spec order.
func (c *Context) VendorNames() []string {
	names := make([]string, 0, len(c.Fleet.Stats))
	for _, s := range c.Fleet.Stats {
		names = append(names, s.Name)
	}
	return names
}

// primaryVendor is the vendor used by the single-vendor studies; the
// paper uses vendor I (most failures, best-resolved metrics).
const primaryVendor = "I"

// Runner is a named experiment producing printable output.
type Runner struct {
	Name        string
	Description string
	Run         func(c *Context) (fmt.Stringer, error)
}
