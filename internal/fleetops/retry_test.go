package fleetops

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// TestSweepDayRetriesTransientFaults: a transient ObserveDay fault is
// retried away inside SweepDay — the sweep succeeds, counts its
// retries, and scores exactly what a fault-free sweep would.
func TestSweepDayRetriesTransientFaults(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	trainDay := 80
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", trainDay); err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 11, ObserveFirst: 2})
	opts := serve.Options{Faults: serve.FaultHooks{Observe: faults.Observe}}
	if _, err := s.EnsureScorer("I", opts); err != nil {
		t.Fatal(err)
	}

	recs := sweepRecords(t, trainDay+1)
	as, st, err := s.SweepDay(recs, opts)
	if err != nil {
		t.Fatalf("sweep failed despite retries: %v", err)
	}
	if st.Retries != 2 {
		t.Fatalf("stats counted %d retries, want 2", st.Retries)
	}
	if st.Scored == 0 || len(as) == 0 {
		t.Fatalf("retried sweep scored nothing: %+v", st)
	}
	observe, _, _ := faults.Fired()
	if observe != 2 {
		t.Fatalf("injector fired %d observe faults, want 2", observe)
	}
}

// TestSweepDayGivesUpOnPersistentFault: when the fault outlasts the
// retry budget the sweep errors instead of spinning.
func TestSweepDayGivesUpOnPersistentFault(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{MaxRetries: 1, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	trainDay := 80
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", trainDay); err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 11, ObserveFirst: 1000})
	opts := serve.Options{Faults: serve.FaultHooks{Observe: faults.Observe}}
	if _, err := s.EnsureScorer("I", opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SweepDay(sweepRecords(t, trainDay+1), opts); err == nil {
		t.Fatal("persistent fault did not surface")
	}
	observe, _, _ := faults.Fired()
	if observe != 2 {
		t.Fatalf("injector fired %d times, want 2 (1 try + 1 retry)", observe)
	}
}

// TestTrainRetriesModelSwap: a transient model-swap fault during
// iteration is retried; a persistent one leaves the previous model
// both serving and published.
func TestTrainRetriesModelSwap(t *testing.T) {
	res := fleet(t)
	s, err := New(Options{RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	trainDay := 80
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", trainDay); err != nil {
		t.Fatal(err)
	}
	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 13, SwapFirst: 1})
	opts := serve.Options{Faults: serve.FaultHooks{Swap: faults.Swap}}
	if _, err := s.EnsureScorer("I", opts); err != nil {
		t.Fatal(err)
	}

	// One forced swap fault: the retry inside Train clears it.
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", trainDay+10); err != nil {
		t.Fatalf("iteration failed despite swap retry: %v", err)
	}
	_, _, swaps := faults.Fired()
	if swaps != 1 {
		t.Fatalf("injector fired %d swap faults, want 1", swaps)
	}
	prev, ok := s.Model("I")
	if !ok {
		t.Fatal("model vanished")
	}

	// Persistent swap failure: Train errors and neither the published
	// model nor the history advances.
	persistent := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 13, SwapFirst: 1000})
	st := s.vendors["I"]
	st.scorer = nil
	if _, err := s.EnsureScorer("I", serve.Options{Faults: serve.FaultHooks{Swap: persistent.Swap}}); err != nil {
		t.Fatal(err)
	}
	histBefore := len(s.History("I"))
	if _, err := s.Train(fleetFrame(t), res.Tickets, "I", trainDay+20); err == nil {
		t.Fatal("persistent swap failure did not surface")
	}
	if got, _ := s.Model("I"); got != prev {
		t.Fatal("failed iteration replaced the published model")
	}
	if len(s.History("I")) != histBefore {
		t.Fatal("failed iteration appended to history")
	}
}
