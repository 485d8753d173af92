package serve

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/simfleet"
)

// vendorDrives returns the fixture's vendor-I serials of one kind
// ("faulty" or "healthy"), sorted.
func vendorDrives(fleet *simfleet.Result, kind string) []string {
	var out []string
	for sn, truth := range fleet.Truth {
		if truth.Vendor == "I" && truth.Kind == kind {
			out = append(out, sn)
		}
	}
	sort.Strings(out)
	return out
}

// streamDrive feeds one drive's records to s a day at a time, as an
// on-machine monitor sees them, calling each with the record's
// assessments; it returns the first alarmed day, or -1.
func streamDrive(t *testing.T, s *Scorer, fleet *simfleet.Result, sn string, each func([]Assessment)) (alarmedAt int) {
	t.Helper()
	series, ok := fleet.Data.Series(sn)
	if !ok {
		t.Fatalf("drive %s missing", sn)
	}
	alarmedAt = -1
	for i := range series.Records {
		as, _, err := s.ObserveDay([]dataset.Record{series.Records[i]})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range as {
			if a.Alarmed && alarmedAt == -1 {
				alarmedAt = a.Day
			}
		}
		if each != nil {
			each(as)
		}
	}
	return alarmedAt
}

func TestScorerAlarmsOnFailingDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty := vendorDrives(fleet, "faulty")
	if len(faulty) == 0 {
		t.Skip("no faulty vendor-I drives")
	}
	alarms := 0
	for _, sn := range faulty {
		if alarmedAt := streamDrive(t, s, fleet, sn, nil); alarmedAt >= 0 {
			alarms++
			if alarmedAt > fleet.Truth[sn].FailDay {
				t.Errorf("drive %s alarmed after its failure day", sn)
			}
		}
	}
	if rate := float64(alarms) / float64(len(faulty)); rate < 0.7 {
		t.Fatalf("scorer alarmed on only %.0f%% of failing drives", rate*100)
	}
}

func TestScorerQuietOnHealthyDrives(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	healthy := vendorDrives(fleet, "healthy")
	if len(healthy) > 120 {
		healthy = healthy[:120]
	}
	if len(healthy) == 0 {
		t.Skip("no healthy drives")
	}
	alarms := 0
	for _, sn := range healthy {
		if streamDrive(t, s, fleet, sn, nil) >= 0 {
			alarms++
		}
	}
	if rate := float64(alarms) / float64(len(healthy)); rate > 0.08 {
		t.Fatalf("scorer alarmed on %.0f%% of healthy drives", rate*100)
	}
}

// TestScorerHysteresis: the alarm latches exactly when a drive's flag
// run first reaches AlarmAfter, and stays latched.
func TestScorerHysteresis(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{AlarmAfter: 3, Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	latched := false
	for _, sn := range vendorDrives(fleet, "faulty")[:1] {
		streamDrive(t, s, fleet, sn, func(as []Assessment) {
			for _, a := range as {
				if a.Alarmed != (latched || a.ConsecutiveFlags >= 3) {
					t.Fatalf("day %d: alarmed %t at %d consecutive flags", a.Day, a.Alarmed, a.ConsecutiveFlags)
				}
				latched = a.Alarmed
			}
		})
	}
	if !latched {
		t.Skip("drive never alarmed")
	}
}

// TestExplainFlaggedDrive: after each flagged day, Explain names at
// most three features with positive contributions, strongest first.
func TestExplainFlaggedDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	sn := vendorDrives(fleet, "faulty")[0]
	if s.Explain(sn) != nil {
		t.Fatal("unknown drive explained")
	}
	sawFactors := false
	streamDrive(t, s, fleet, sn, func(as []Assessment) {
		if len(as) == 0 || !as[len(as)-1].Flagged {
			return
		}
		factors := s.Explain(sn)
		if len(factors) == 0 || len(factors) > 3 {
			t.Fatalf("flagged drive explained by %d factors, want 1-3", len(factors))
		}
		for i, f := range factors {
			if f.Feature == "" || f.Contribution <= 0 {
				t.Fatalf("bad factor %+v", f)
			}
			if i > 0 && f.Contribution > factors[i-1].Contribution {
				t.Fatal("factors not sorted by contribution")
			}
		}
		sawFactors = true
	})
	if !sawFactors {
		t.Skip("drive never flagged")
	}

	// A model without attribution explains nothing.
	plain, err := New(fuzzModel(), Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	streamDrive(t, plain, fleet, sn, nil)
	if plain.Explain(sn) != nil {
		t.Fatal("model without attribution explained a drive")
	}
}

func TestNewRejectsSequenceModels(t *testing.T) {
	_, model, _ := setup(t)
	seq := *model
	seq.Config.Algorithm = core.AlgoCNNLSTM
	if _, err := New(&seq, Options{}); err == nil {
		t.Fatal("sequence model accepted")
	}
}

// TestUpdateModelFollowsThreshold: a pushed model of the same group
// replaces the threshold; another group is refused.
func TestUpdateModelFollowsThreshold(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig("I")
	cfg.Seed = 9
	next, _, err := core.TrainOnFrame(cachedFrame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateModel(next); err != nil {
		t.Fatal(err)
	}
	if s.Threshold() != next.Threshold {
		t.Fatal("threshold did not follow the pushed model")
	}
	wrong := *next
	wrong.Config.Group = features.GroupS
	if err := s.UpdateModel(&wrong); err == nil {
		t.Fatal("group change accepted")
	}
}

// TestScorerCumulationMatchesPipeline: a drive streamed a record at a
// time scores exactly the offline pipeline's rows for that drive,
// bit-identical, with no row missing or extra.
func TestScorerCumulationMatchesPipeline(t *testing.T) {
	fleet, model, regs := setup(t)
	offline := offlineScores(t, fleet, model, regs)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, sn := range vendorDrives(fleet, "faulty") {
		want := 0
		for k := range offline {
			if k.sn == sn {
				want++
			}
		}
		if want == 0 {
			continue // the pipeline excluded the drive
		}
		scored := 0
		streamDrive(t, s, fleet, sn, func(as []Assessment) {
			for _, a := range as {
				p, ok := offline[key{sn, a.Day}]
				if !ok || a.Dropped || a.Quarantined {
					t.Fatalf("drive %s day %d: online %+v, offline row present %t", sn, a.Day, a, ok)
				}
				if math.Float64bits(a.Probability) != math.Float64bits(p) {
					t.Fatalf("drive %s day %d: online score %g, pipeline score %g", sn, a.Day, a.Probability, p)
				}
				scored++
			}
		})
		if scored != want {
			t.Fatalf("drive %s: %d rows scored online, pipeline has %d", sn, scored, want)
		}
		if checked++; checked == 2 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no faulty drive survives the offline pipeline")
	}
}

// TestScorerQuarantinesOutOfOrder: a record older than the drive's last
// day quarantines the drive with a rolling-error reason instead of
// failing the batch.
func TestScorerQuarantinesOutOfOrder(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	sn := vendorDrives(fleet, "faulty")[0]
	series, _ := fleet.Data.Series(sn)
	if _, st, err := s.ObserveDay(series.Records[1:2]); err != nil || st.Quarantined != 0 {
		t.Fatalf("in-order record: stats %+v, err %v", st, err)
	}
	as, st, err := s.ObserveDay(series.Records[0:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || len(as) != 1 || !as[0].Quarantined {
		t.Fatalf("out-of-order record accepted: stats %+v, assessments %+v", st, as)
	}
	e, ok := s.Quarantined(sn)
	if !ok || e.Reason != QuarantineRollingError || e.Day != series.Records[0].Day {
		t.Fatalf("ledger entry %+v, %t: want reason %v on day %d", e, ok, QuarantineRollingError, series.Records[0].Day)
	}
}

// TestScorerResetDrive: ResetDrive forgets a drive once, clears its
// alarm, and the drive then scores as a fresh series.
func TestScorerResetDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	sn := vendorDrives(fleet, "faulty")[0]
	var first []Assessment
	alarmedAt := streamDrive(t, s, fleet, sn, func(as []Assessment) { first = append(first, as...) })
	if d := s.Drives(); len(d) != 1 || d[0] != sn {
		t.Fatalf("drives = %v", d)
	}
	if !s.ResetDrive(sn) {
		t.Fatal("ResetDrive failed")
	}
	if s.ResetDrive(sn) {
		t.Fatal("second ResetDrive succeeded")
	}
	if s.Alarmed(sn) || len(s.Drives()) != 0 {
		t.Fatal("drive state survived reset")
	}
	var again []Assessment
	if at := streamDrive(t, s, fleet, sn, func(as []Assessment) { again = append(again, as...) }); at != alarmedAt {
		t.Fatalf("re-streamed drive alarmed on day %d, first pass on day %d", at, alarmedAt)
	}
	if err := sameAssessments(again, first); err != nil {
		t.Fatalf("re-streamed drive after reset: %v", err)
	}
}
