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
)

// Context owns the simulated fleets and caches the expensive shared
// stages (preparation, sample building) across experiments.
type Context struct {
	// Cfg is the fleet configuration of the headline experiments.
	Cfg simfleet.Config
	// Fleet is the simulated population.
	Fleet *simfleet.Result

	// Registries maps vendor name to its firmware ladder, for
	// order-preserving label encoding.
	Registries map[string]*firmware.Registry

	// Workers bounds the fan-out of every parallelised stage the
	// experiments drive — pipeline preparation, grid search, feature
	// selection — following the repository convention (0 = GOMAXPROCS,
	// 1 = serial). It is seeded from the fleet config's Workers field
	// and never changes results, only wall-clock time.
	Workers int

	driftFleet      *simfleet.FrameResult
	slowTicketFleet *simfleet.FrameResult

	// frame is the fleet telemetry in columnar form, converted lazily;
	// Prepared runs the fused frame pipeline on it.
	frame *dataset.Frame

	prepCache map[string]*core.Prepared
	setCache  map[string]*ml.SampleSet
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
		prepCache:  make(map[string]*core.Prepared),
		setCache:   make(map[string]*ml.SampleSet),
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

// Prepared returns (caching) the prepared pipeline for a
// vendor/feature-group pair. The cache key includes the group because
// Prepared embeds its extractor, so each group runs and keeps its own
// preparation (clean, cumulate, label) even though those stages do not
// depend on the group. Callers that go through the uncached prepare,
// such as Fig9 once per group, prepare again on every call.
func (c *Context) Prepared(vendor string, group features.Group) (*core.Prepared, error) {
	key := vendor + "/" + group.String()
	if p, ok := c.prepCache[key]; ok {
		return p, nil
	}
	p, err := c.prepare(c.PipelineConfig(vendor, group))
	if err != nil {
		return nil, err
	}
	c.prepCache[key] = p
	return p, nil
}

// prepare runs the data stages on the context fleet, uncached.
func (c *Context) prepare(cfg core.Config) (*core.Prepared, error) {
	f, err := c.FleetFrame()
	if err != nil {
		return nil, err
	}
	return core.PrepareFrame(f, c.Fleet.Tickets, cfg)
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

// SampleSet returns (caching) the columnar sample set of a vendor/group
// pair. The set is shared by every experiment that splits it into
// views, so extraction happens at most once per vendor/group for the
// whole report run.
func (c *Context) SampleSet(vendor string, group features.Group) (*ml.SampleSet, *core.Prepared, error) {
	key := vendor + "/" + group.String()
	p, err := c.Prepared(vendor, group)
	if err != nil {
		return nil, nil, err
	}
	if s, ok := c.setCache[key]; ok {
		return s, p, nil
	}
	s, err := p.BuildSampleSet()
	if err != nil {
		return nil, nil, err
	}
	c.setCache[key] = s
	return s, p, nil
}

// SplitSet returns the chronological train/test split of a vendor/group
// as zero-copy views of the shared sample set.
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
