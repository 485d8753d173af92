package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/ticket"
)

// prepKey identifies one PrepareFrame result: the fleet frame and the
// defaulted preparation fields of core.Config.
type prepKey struct {
	fleet        *dataset.Frame
	vendor       string
	gaps         dataset.GapPolicy
	skipClean    bool
	skipCumulate bool
	theta        int
}

func prepKeyOf(f *dataset.Frame, cfg core.Config) prepKey {
	cfg = cfg.WithDefaults()
	return prepKey{fleet: f, vendor: cfg.Vendor, gaps: cfg.GapPolicy, skipClean: cfg.SkipClean, skipCumulate: cfg.SkipCumulate, theta: cfg.Theta}
}

// modelKey identifies one trained model: the fleet frame and the
// defaulted config, printed field by field, with the fields that cannot
// change results cleared:
//   - Workers: every parallel stage merges in a fixed order;
//   - Registries: a context passes its own registries to every config.
//
// Printing the whole config puts any field added to core.Config in the
// key without further work.
type modelKey struct {
	fleet *dataset.Frame
	cfg   string
}

func modelKeyOf(f *dataset.Frame, cfg core.Config) modelKey {
	cfg = cfg.WithDefaults()
	cfg.Workers = 0
	cfg.Registries = nil
	return modelKey{fleet: f, cfg: fmt.Sprintf("%+v", cfg)}
}

// preparation is one PrepareFrame result and its per-group views,
// which share its frame and labels.
type preparation struct {
	base   *core.Prepared
	groups map[features.Group]*core.Prepared
}

// group returns (deriving once) the preparation's view for group g.
func (pr *preparation) group(g features.Group) (*core.Prepared, error) {
	if p, ok := pr.groups[g]; ok {
		return p, nil
	}
	cfg := pr.base.Config
	cfg.Group = g
	p, err := pr.base.With(cfg)
	if err != nil {
		return nil, err
	}
	pr.groups[g] = p
	return p, nil
}

// sharesPreparation reports whether cfg on fleet f is a view of the
// shared preparation: vendor I's default preparation of the context
// fleet, which most model studies start from.
func (c *Context) sharesPreparation(f *dataset.Frame, cfg core.Config) bool {
	return prepKeyOf(f, cfg) == prepKeyOf(c.frame, c.PipelineConfig(primaryVendor, features.GroupSFWB))
}

// prepared returns a Prepared for cfg on the fleet (f, tickets): a view
// of the shared preparation when cfg keeps its preparation fields, a
// fresh preparation otherwise.
func (c *Context) prepared(f *dataset.Frame, tickets *ticket.Store, cfg core.Config) (*core.Prepared, error) {
	if !c.sharesPreparation(f, cfg) {
		return c.prepareOn(f, tickets, cfg)
	}
	p, err := c.Prepared(cfg.Vendor, cfg.Group)
	if err != nil {
		return nil, err
	}
	return p.With(cfg)
}

// keepsSet reports whether p's sample set stays cached: a flat set at
// the default positive window on the shared preparation, of a group
// several experiments read — SFWB, the MFPA pool, or S, the SMART
// baselines'. Within those, the group alone tells sets apart.
func (c *Context) keepsSet(p *core.Prepared) bool {
	if c.shared == nil || p.Frame != c.shared.base.Frame || p.Config.Algorithm.Sequential() ||
		p.Config.PositiveWindowDays != c.shared.base.Config.PositiveWindowDays {
		return false
	}
	return p.Config.Group == features.GroupSFWB || p.Config.Group == features.GroupS
}

// sampleSet returns p's sample set, built on first use; only the sets
// keepsSet selects are kept.
func (c *Context) sampleSet(p *core.Prepared) (*ml.SampleSet, error) {
	keep := c.keepsSet(p)
	if s, ok := c.sets[p.Config.Group]; ok && keep {
		return s, nil
	}
	s, err := p.BuildSampleSet()
	if err != nil {
		return nil, err
	}
	if keep {
		c.sets[p.Config.Group] = s
	}
	return s, nil
}

// fit is what the model memo keeps of one training: the model and its
// held-out evaluation. It never keeps the TrainReport, whose test view
// would pin the sample set.
type fit struct {
	model *core.Model
	eval  core.Evaluation
}

// trainAll returns each config's model on the fleet (f, tickets) and
// its held-out evaluation, training only the configs the context has
// not met; a config repeated within one call trains once. On failure
// it returns the index of the first config, in list order, whose
// preparation or training failed.
//
// Every cache read and write happens in serial passes around one
// fan-out over c.Workers:
//   - before it, memo hits are taken, and each config that views the
//     shared preparation gets its Prepared and, when kept, its sample
//     set. A config that needs its own preparation trains here, one at
//     a time: each holds a whole preparation while it trains;
//   - the fan-out builds the sets that are not kept, and trains;
//   - after it, the memo and the trained list are filled in config
//     order.
func (c *Context) trainAll(f *dataset.Frame, tickets *ticket.Store, cfgs []core.Config) ([]fit, int, error) {
	type job struct {
		at  int // index of the config's first occurrence in cfgs
		key modelKey
		cfg core.Config    // the config as its Prepared holds it
		p   *core.Prepared // nil once trained
		set *ml.SampleSet  // a kept set; nil builds one in the fan-out
		fit fit
		err error
	}
	var (
		jobs    []job
		failAt  int
		failErr error
	)
	keys := make([]modelKey, len(cfgs))
	queued := make(map[modelKey]bool)
	for i, cfg := range cfgs {
		keys[i] = modelKeyOf(f, cfg)
		if _, ok := c.models[keys[i]]; ok || queued[keys[i]] {
			continue
		}
		queued[keys[i]] = true
		jb := job{at: i, key: keys[i]}
		var p *core.Prepared
		if c.sharesPreparation(f, cfg) {
			if p, failErr = c.prepared(f, tickets, cfg); failErr == nil && c.keepsSet(p) {
				jb.set, failErr = c.sampleSet(p)
			}
			jb.p = p
		} else if p, failErr = c.prepareOn(f, tickets, cfg); failErr == nil {
			jb.fit, failErr = trainPrepared(p, nil)
		}
		if failErr != nil {
			failAt = i
			break
		}
		jb.cfg = p.Config
		jobs = append(jobs, jb)
	}
	// Every queued job comes before the first failure in config order,
	// and the fan-out attempts every job below its lowest failure, so
	// the first failed job is the one a serial loop would meet.
	_ = parallel.Do(len(jobs), c.Workers, func(j int) error {
		jb := &jobs[j]
		if jb.p == nil {
			return nil // trained in the serial pass
		}
		jb.fit, jb.err = trainPrepared(jb.p, jb.set)
		jb.p, jb.set = nil, nil
		return jb.err
	})
	for _, jb := range jobs {
		if jb.err != nil {
			return nil, jb.at, jb.err
		}
	}
	if failErr != nil {
		return nil, failAt, failErr
	}
	for _, jb := range jobs {
		c.models[jb.key] = jb.fit
		c.work.trained = append(c.work.trained, jb.cfg)
	}
	out := make([]fit, len(cfgs))
	for i, key := range keys {
		out[i] = c.models[key]
	}
	return out, 0, nil
}

// trainPrepared trains p on set, building p's sample set when set is
// nil.
func trainPrepared(p *core.Prepared, set *ml.SampleSet) (fit, error) {
	if set == nil {
		var err error
		if set, err = p.BuildSampleSet(); err != nil {
			return fit{}, err
		}
	}
	m, rep, err := core.TrainSet(p, set)
	if err != nil {
		return fit{}, err
	}
	return fit{model: m, eval: rep.Eval}, nil
}

// trainFleet is trainAll of one config on the context fleet.
func (c *Context) trainFleet(cfg core.Config) (fit, error) {
	f, err := c.FleetFrame()
	if err != nil {
		return fit{}, err
	}
	fits, _, err := c.trainAll(f, c.Fleet.Tickets, []core.Config{cfg})
	if err != nil {
		return fit{}, err
	}
	return fits[0], nil
}
