// Package fleetops is the fleet-side half of the paper's Fig. 1: a
// service that owns one MFPA model per vendor, re-trains ("iterates")
// each model on a fixed cadence — the paper recommends every two to
// three months — using only the telemetry and tickets visible at that
// date, tracks evaluation history across iterations, and publishes
// modelio envelopes for the on-machine scorers (serve.Scorer) to
// download.
package fleetops

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/ticket"
)

// Options configures the service.
type Options struct {
	// Template is the pipeline configuration applied to every vendor
	// (Vendor is overwritten per model). Zero-valued fields take the
	// core defaults.
	Template core.Config
	// IterationDays is the re-training cadence; 0 selects 60 (the
	// paper's two months).
	IterationDays int
}

// IterationRecord is one completed training of a vendor model.
type IterationRecord struct {
	// Day is the as-of day the model was trained at.
	Day int
	// Eval is the held-out evaluation measured at training time.
	Eval core.Evaluation
	// Threshold is the calibrated decision threshold.
	Threshold float64
	// TrainSamples is the post-undersampling training set size.
	TrainSamples int
}

// vendorState tracks one vendor's current model and history.
type vendorState struct {
	model   *core.Model
	history []IterationRecord
}

// Service manages per-vendor MFPA models. It is safe for concurrent
// use.
type Service struct {
	mu            sync.Mutex
	template      core.Config
	iterationDays int
	vendors       map[string]*vendorState
}

// New builds a service.
func New(opts Options) (*Service, error) {
	iter := opts.IterationDays
	if iter == 0 {
		iter = 60
	}
	if iter < 1 {
		return nil, fmt.Errorf("fleetops: IterationDays %d must be ≥ 1", iter)
	}
	tpl := opts.Template
	tpl.Vendor = ""
	if tpl.Group.Empty() {
		// Zero template: the paper's best configuration.
		tpl = core.DefaultConfig("")
	}
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	return &Service{
		template:      tpl,
		iterationDays: iter,
		vendors:       make(map[string]*vendorState),
	}, nil
}

// Train (re-)trains the vendor's model as of asOfDay: only telemetry
// rows observed by then and tickets filed by then are visible, so an
// iteration never peeks at the future.
func (s *Service) Train(data *dataset.Frame, tickets *ticket.Store, vendor string, asOfDay int) (IterationRecord, error) {
	cfg := s.template
	cfg.Vendor = vendor
	model, report, err := core.TrainOnFrame(data.Until(asOfDay), tickets.Until(asOfDay), cfg)
	if err != nil {
		return IterationRecord{}, fmt.Errorf("fleetops: vendor %s at day %d: %w", vendor, asOfDay, err)
	}
	rec := IterationRecord{
		Day:          asOfDay,
		Eval:         report.Eval,
		Threshold:    model.Threshold,
		TrainSamples: report.TrainSamples,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok {
		st = &vendorState{}
		s.vendors[vendor] = st
	}
	st.model = model
	st.history = append(st.history, rec)
	return rec, nil
}

// NeedsIteration reports whether the vendor's model is due for
// re-training at today: never trained, or trained at least
// IterationDays ago.
func (s *Service) NeedsIteration(vendor string, today int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || len(st.history) == 0 {
		return true
	}
	last := st.history[len(st.history)-1].Day
	return today-last >= s.iterationDays
}

// Step re-trains every listed vendor that is due at today and returns
// the vendors that were re-trained.
func (s *Service) Step(data *dataset.Frame, tickets *ticket.Store, vendors []string, today int) ([]string, error) {
	var retrained []string
	for _, v := range vendors {
		if !s.NeedsIteration(v, today) {
			continue
		}
		if _, err := s.Train(data, tickets, v, today); err != nil {
			return retrained, err
		}
		retrained = append(retrained, v)
	}
	return retrained, nil
}

// Model returns the vendor's current model, if one has been trained.
func (s *Service) Model(vendor string) (*core.Model, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || st.model == nil {
		return nil, false
	}
	return st.model, true
}

// Publish serialises the vendor's current model for distribution to
// the on-machine scorers.
func (s *Service) Publish(vendor string) ([]byte, error) {
	m, ok := s.Model(vendor)
	if !ok {
		return nil, fmt.Errorf("fleetops: no model for vendor %s", vendor)
	}
	return modelio.Marshal(m)
}

// History returns the vendor's iteration records, oldest first.
func (s *Service) History(vendor string) []IterationRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok {
		return nil
	}
	out := make([]IterationRecord, len(st.history))
	copy(out, st.history)
	return out
}

// Vendors returns the vendors with at least one trained model, sorted.
func (s *Service) Vendors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.vendors))
	for v := range s.vendors {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
