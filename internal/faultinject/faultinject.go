// Package faultinject is the deterministic chaos harness for the
// serving stack. Production consumer telemetry is messy — collectors
// emit NaNs, duplicate days, and negative counters; disks tear writes;
// scoring backends hiccup — so the fault-tolerance layer must be
// exercised against exactly those failures, reproducibly. Every
// injector here is seeded: the same seed over the same call sequence
// injects the same faults, so a chaos run that surfaces a bug is
// replayable bit-for-bit.
//
// Three injector families cover the system's failure surfaces:
//
//   - RecordCorruptor mangles telemetry records (NaN/Inf SMART values,
//     negative event counters, duplicated and out-of-order days) the
//     way a buggy collector would;
//   - IOFaults plugs into atomicio.Hooks to shorten writes, fail
//     renames, and truncate reads around checkpoint persistence;
//   - ScorerFaults supplies the error seams serve.Scorer and
//     fleetops call for transient batch failures, scoring-backend
//     failures, and model-swap failures.
//
// Injected errors carry a Transient method so retry layers can
// classify them without importing this package (errors.As against an
// anonymous interface).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/rng"
)

// Error is one injected fault.
type Error struct {
	// Op names the faulted operation (e.g. "observe", "rename").
	Op string
	// Call is the 1-based call count at which the fault fired.
	Call int
	// Retryable marks faults a bounded retry could clear.
	Retryable bool
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault (call %d)", e.Op, e.Call)
}

// Transient reports whether a retry could succeed; retry layers detect
// it structurally via errors.As(err, &interface{ Transient() bool }).
func (e *Error) Transient() bool { return e.Retryable }

// IsTransient reports whether err (or anything it wraps) declares
// itself transient.
func IsTransient(err error) bool {
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}

// opRNG derives an independent deterministic stream per (seed, op), so
// interleaving calls of different ops never perturbs another op's
// schedule.
func opRNG(seed int64, op string) *rand.Rand {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(op); i++ {
		h ^= int64(op[i])
		h *= 1099511628211
	}
	return rand.New(rng.NewSource(seed ^ h))
}

// schedule is one op's deterministic fault stream: the first First
// calls always fault, then each call faults with probability P.
type schedule struct {
	mu    sync.Mutex
	op    string
	rng   *rand.Rand
	first int
	p     float64
	calls int
	fired int
}

func newSchedule(seed int64, op string, first int, p float64) *schedule {
	return &schedule{op: op, rng: opRNG(seed, op), first: first, p: p}
}

// next advances the stream one call and reports whether it faults.
func (s *schedule) next() (call int, fault bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	// Draw unconditionally so the stream's randomness depends only on
	// the call index, not on how many forced-first faults ran.
	draw := s.rng.Float64()
	if s.calls <= s.first || draw < s.p {
		s.fired++
		return s.calls, true
	}
	return s.calls, false
}

// fired returns how many faults the schedule has injected.
func (s *schedule) firedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// ScorerConfig configures the serving-plane fault seams. A zero field
// disables that seam.
type ScorerConfig struct {
	// Seed drives every schedule; the same seed over the same call
	// sequence injects the same faults.
	Seed int64
	// ObserveFirst / ObserveP fault ObserveDay before any state
	// mutation — the transient collector/transport hiccup a bounded
	// retry should clear.
	ObserveFirst int
	ObserveP     float64
	// ScoreFirst / ScoreP fault the batch-scoring backend, forcing the
	// scorer onto its degraded fallback for the day.
	ScoreFirst int
	ScoreP     float64
	// SwapFirst / SwapP fault model swaps (UpdateModel).
	SwapFirst int
	SwapP     float64
}

// ScorerFaults produces the error-returning hooks serve.Options and
// fleetops wire in. Safe for concurrent use.
type ScorerFaults struct {
	observe *schedule
	score   *schedule
	swap    *schedule
}

// NewScorerFaults builds a seeded scorer-fault injector.
func NewScorerFaults(cfg ScorerConfig) *ScorerFaults {
	return &ScorerFaults{
		observe: newSchedule(cfg.Seed, "observe", cfg.ObserveFirst, cfg.ObserveP),
		score:   newSchedule(cfg.Seed, "score", cfg.ScoreFirst, cfg.ScoreP),
		swap:    newSchedule(cfg.Seed, "swap", cfg.SwapFirst, cfg.SwapP),
	}
}

// Observe is the transient pre-batch fault hook (retry-safe).
func (f *ScorerFaults) Observe() error {
	if call, fault := f.observe.next(); fault {
		return &Error{Op: "observe", Call: call, Retryable: true}
	}
	return nil
}

// Score is the scoring-backend fault hook (degradation, not retry).
func (f *ScorerFaults) Score() error {
	if call, fault := f.score.next(); fault {
		return &Error{Op: "score", Call: call}
	}
	return nil
}

// Swap is the model-swap fault hook (transient: the push can be
// retried).
func (f *ScorerFaults) Swap() error {
	if call, fault := f.swap.next(); fault {
		return &Error{Op: "swap", Call: call, Retryable: true}
	}
	return nil
}

// Fired reports how many faults each seam has injected, for chaos-run
// summaries.
func (f *ScorerFaults) Fired() (observe, score, swap int) {
	return f.observe.firedCount(), f.score.firedCount(), f.swap.firedCount()
}
