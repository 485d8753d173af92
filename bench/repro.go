package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/simfleet"
)

// reproExperiments are the experiments paper_repro regenerates: the
// feature-group and baseline studies and the gap-policy and
// under-sampling ablations, a bounded subset of mfpareport that trains
// many small vendor-I models on the record-form pipeline. Each trains a
// fixed number of models on the vendor with the most failures, so every
// seed trains without error and the seed moves the inputs, not the
// amount of work. Forward selection (fig17) and the grid search do
// 2-4x more or less work from one fleet to the next; the per-vendor
// studies (fig11, seeds) train vendor IV, which at this scale has too
// few failures for every fleet to yield both classes.
var reproExperiments = []string{"fig9", "fig18", "gaps", "ratio"}

// paperRepro is the researcher's path. One operation runs the
// experiments on a context whose fleet was simulated off the clock;
// each operation gets a fresh context, because a context caches
// everything it prepares.
type paperRepro struct {
	cfg    simfleet.Config
	ctx    *experiments.Context // nil once an operation has used it
	drives int
	rows   int
	// digest is the sha256 of the first operation's rendered results;
	// every later one, at any GOMAXPROCS, must match it.
	digest *[sha256.Size]byte
}

func setupRepro(sz *sizes, _ *options) (instance, error) {
	ctx, err := experiments.NewContextWith(sz.repro)
	if err != nil {
		return nil, err
	}
	return &paperRepro{cfg: sz.repro, ctx: ctx, drives: ctx.Fleet.Data.Drives(), rows: ctx.Fleet.Data.Len()}, nil
}

func (p *paperRepro) sizes() map[string]int {
	return map[string]int{"drives": p.drives, "drive_days": p.rows}
}

func (p *paperRepro) summary() string {
	if p.digest == nil {
		return ""
	}
	return fmt.Sprintf("results_sha256=%x", *p.digest)
}

func (p *paperRepro) run(m *meter, deadline time.Time) error {
	for {
		if p.ctx == nil {
			ctx, err := call(m.tr, "simfleet.simulate", func() (*experiments.Context, error) { return experiments.NewContextWith(p.cfg) })
			if err != nil {
				return err
			}
			p.ctx = ctx
			m.count("repro.contexts", 1)
		}
		h := sha256.New()
		err := m.op(func() (int, error) {
			for _, name := range reproExperiments {
				r, ok := experiments.Lookup(name)
				if !ok {
					return 0, fmt.Errorf("experiment %q is not registered", name)
				}
				text, err := call(m.tr, "experiments."+name, func() (string, error) {
					res, err := r.Run(p.ctx)
					if err != nil {
						return "", err
					}
					return res.String(), nil
				})
				if err != nil {
					return 0, fmt.Errorf("experiment %s: %w", name, err)
				}
				h.Write([]byte(text))
			}
			return p.rows, nil
		})
		if err != nil {
			return err
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		if p.digest == nil {
			p.digest = &sum
		} else if sum != *p.digest {
			return fmt.Errorf("gate paper_repro/results-sha256: %x, first pass %x", sum, *p.digest)
		}
		p.ctx = nil
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func (p *paperRepro) layerMetrics(m *meter, self selfNs) map[string]float64 {
	out := make(map[string]float64)
	if n := m.counts["repro.contexts"]; n > 0 {
		out["simfleet.simulate_ms"] = float64(self.beside["simfleet.simulate"]) / n / 1e6
	}
	return out
}
