package simfleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/smartattr"
)

func tinyFleet(t *testing.T) *Result {
	t.Helper()
	res, err := Simulate(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSerialNumberMatchesSprintf pins the hand-rolled serial formatter
// to the fmt layout it replaced: serials seed each drive's RNG, so any
// drift here would silently change every simulated fleet.
func TestSerialNumberMatchesSprintf(t *testing.T) {
	for _, vendor := range []string{"I", "S", "T", "LongVendorName"} {
		for _, tag := range []byte{'F', 'H'} {
			for _, i := range []int{0, 1, 7, 99, 123456, 999999, 1000000, -3} {
				want := fmt.Sprintf("%s-%c%06d", vendor, tag, i)
				if got := serialNumber(vendor, tag, i); got != want {
					t.Fatalf("serialNumber(%q, %q, %d) = %q, want %q", vendor, tag, i, got, want)
				}
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := tinyFleet(t)
	b := tinyFleet(t)
	if a.Data.Len() != b.Data.Len() || a.Data.Drives() != b.Data.Drives() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.Data.Drives(), a.Data.Len(), b.Data.Drives(), b.Data.Len())
	}
	for _, sn := range a.Data.SerialNumbers() {
		sa, _ := a.Data.Series(sn)
		sb, ok := b.Data.Series(sn)
		if !ok {
			t.Fatalf("drive %s missing in second run", sn)
		}
		if len(sa.Records) != len(sb.Records) {
			t.Fatalf("drive %s: %d vs %d records", sn, len(sa.Records), len(sb.Records))
		}
		for i := range sa.Records {
			ra, rb := &sa.Records[i], &sb.Records[i]
			if ra.Day != rb.Day || ra.Smart != rb.Smart {
				t.Fatalf("drive %s record %d differs", sn, i)
			}
		}
	}
	if a.Tickets.Len() != b.Tickets.Len() {
		t.Fatal("ticket counts differ")
	}
}

func TestSimulateSeedChangesFleet(t *testing.T) {
	cfg := TinyConfig()
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data.Len() == b.Data.Len() {
		// Sizes colliding is possible but full equality is not; check a
		// drive's first record hours.
		snA := a.Data.SerialNumbers()[0]
		sa, _ := a.Data.Series(snA)
		sb, ok := b.Data.Series(snA)
		if ok && len(sa.Records) > 0 && len(sb.Records) > 0 &&
			sa.Records[0].Smart == sb.Records[0].Smart {
			t.Fatal("different seeds produced identical telemetry")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Days = 5 },
		func(c *Config) { c.FailureScale = 0 },
		func(c *Config) { c.HealthyPerFaulty = 0 },
		func(c *Config) { c.PrefailWindowDays = 0 },
		func(c *Config) { c.SuddenShare = 2 },
		func(c *Config) { c.SmartNoiseShare = -0.1 },
		func(c *Config) { c.BurstShare = 1.5 },
		func(c *Config) { c.TicketDelayMeanDays = -1 },
		func(c *Config) { c.DriftStartDay = 10; c.DriftMonthlyFactor = 0.5 },
	}
	for i, mutate := range bad {
		cfg := TinyConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEveryFaultyDriveHasATicket(t *testing.T) {
	res := tinyFleet(t)
	for sn, truth := range res.Truth {
		tickets := res.Tickets.Lookup(sn)
		if truth.Faulty && len(tickets) == 0 {
			t.Errorf("faulty drive %s has no ticket", sn)
		}
		if !truth.Faulty && len(tickets) != 0 {
			t.Errorf("healthy drive %s has a ticket", sn)
		}
		if truth.Faulty && len(tickets) > 0 && tickets[0].IMT < truth.FailDay {
			t.Errorf("drive %s: IMT %d before failure %d", sn, tickets[0].IMT, truth.FailDay)
		}
	}
}

func TestNoTelemetryAfterFailure(t *testing.T) {
	res := tinyFleet(t)
	for sn, truth := range res.Truth {
		if !truth.Faulty {
			continue
		}
		s, ok := res.Data.Series(sn)
		if !ok {
			continue
		}
		if s.Records[len(s.Records)-1].Day > truth.FailDay {
			t.Errorf("drive %s logs on day %d after failing on day %d", sn, s.Records[len(s.Records)-1].Day, truth.FailDay)
		}
		// The machine is on the day it dies, so the final record lands
		// exactly on the failure day.
		if s.Records[len(s.Records)-1].Day != truth.FailDay {
			t.Errorf("drive %s last log %d != fail day %d", sn, s.Records[len(s.Records)-1].Day, truth.FailDay)
		}
	}
}

func TestCountersMonotone(t *testing.T) {
	res := tinyFleet(t)
	monotone := []smartattr.ID{
		smartattr.PowerOnHours,
		smartattr.PowerCycles,
		smartattr.DataUnitsRead,
		smartattr.DataUnitsWritten,
		smartattr.MediaErrors,
		smartattr.ErrorLogEntries,
		smartattr.UnsafeShutdowns,
		smartattr.PercentageUsed,
	}
	res.Data.Each(func(s *dataset.DriveSeries) {
		for i := 1; i < len(s.Records); i++ {
			for _, id := range monotone {
				if s.Records[i].Smart.Get(id) < s.Records[i-1].Smart.Get(id) {
					t.Errorf("drive %s: %v decreases at record %d", s.SerialNumber, id, i)
					return
				}
			}
			if s.Records[i].Smart.Get(smartattr.AvailableSpare) > s.Records[i-1].Smart.Get(smartattr.AvailableSpare) {
				t.Errorf("drive %s: spare increases at record %d", s.SerialNumber, i)
				return
			}
		}
	})
}

func TestTelemetryIsDiscontinuous(t *testing.T) {
	res := tinyFleet(t)
	gaps := 0
	res.Data.Each(func(s *dataset.DriveSeries) {
		if s.MaxGap() > 1 {
			gaps++
		}
	})
	if gaps < res.Data.Drives()/2 {
		t.Fatalf("only %d of %d drives have gaps; CSS telemetry must be discontinuous", gaps, res.Data.Drives())
	}
}

func TestFirmwareFailureRatesFavourEarlierReleases(t *testing.T) {
	// Use a larger fleet for stable rates.
	cfg := DefaultConfig()
	cfg.FailureScale = 0.3
	cfg.Days = 60
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Vendor I's first release must have a higher per-capita failure
	// rate than its last.
	st := res.Stats[0]
	first := float64(st.FailuresByFirmwareSeq[1]) / st.PopulationByFirmwareSeq[1]
	last := float64(st.FailuresByFirmwareSeq[5]) / st.PopulationByFirmwareSeq[5]
	if first <= last {
		t.Fatalf("vendor I: first release rate %g ≤ last release rate %g", first, last)
	}
}

func TestBathtubShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureScale = 0.3
	cfg.Days = 60
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var infant, mid, wear, total int
	for _, truth := range res.Truth {
		if !truth.Faulty || truth.FailPowerOnHours <= 0 {
			continue
		}
		total++
		switch h := truth.FailPowerOnHours; {
		case h < 3000:
			infant++
		case h > 24000:
			wear++
		default:
			mid++
		}
	}
	if total < 100 {
		t.Skipf("only %d aged failures", total)
	}
	infantRate := float64(infant) / 3000
	midRate := float64(mid) / 21000
	wearRate := float64(wear) / 6000
	if infantRate <= midRate {
		t.Errorf("no infant mortality spike: %g vs %g per hour", infantRate, midRate)
	}
	if wearRate <= midRate {
		t.Errorf("no wear-out rise: %g vs %g per hour", wearRate, midRate)
	}
}

func TestVendorStatsConsistent(t *testing.T) {
	res := tinyFleet(t)
	for _, st := range res.Stats {
		if st.Failures < 1 {
			t.Errorf("vendor %s has no failures", st.Name)
		}
		if st.SampledHealthy != st.Failures*res.Config.HealthyPerFaulty {
			t.Errorf("vendor %s: healthy %d != failures %d × %d",
				st.Name, st.SampledHealthy, st.Failures, res.Config.HealthyPerFaulty)
		}
		sum := 0
		for _, n := range st.FailuresByFirmwareSeq {
			sum += n
		}
		if sum != st.Failures {
			t.Errorf("vendor %s: firmware failure counts sum to %d, want %d", st.Name, sum, st.Failures)
		}
		if rr := st.ReplacementRate(); rr <= 0 || rr > 0.05 {
			t.Errorf("vendor %s: implausible replacement rate %g", st.Name, rr)
		}
	}
}

func TestFaultyDrivesShowPrefailureSignals(t *testing.T) {
	res := tinyFleet(t)
	checked, signalled := 0, 0
	for sn, truth := range res.Truth {
		if !truth.Faulty || truth.Sudden {
			continue
		}
		s, ok := res.Data.Series(sn)
		if !ok {
			continue
		}
		checked++
		var w, b float64
		for _, r := range s.Records {
			if r.Day < truth.FailDay-10 || r.Day > truth.FailDay {
				continue
			}
			w += r.WCounts.Total()
			b += r.BCounts.Total()
		}
		if w > 0 || b > 0 {
			signalled++
		}
	}
	if checked == 0 {
		t.Skip("no ramped failures")
	}
	if rate := float64(signalled) / float64(checked); rate < 0.8 {
		t.Fatalf("only %.0f%% of ramped failures show W/B precursors", rate*100)
	}
}

func TestPoissonProperties(t *testing.T) {
	r := newTestRand()
	if poisson(r, 0) != 0 || poisson(r, -1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
	// Mean of small-lambda draws approximates lambda.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(poisson(r, 0.5))
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("poisson(0.5) mean = %g", mean)
	}
	// Large-lambda path is non-negative and roughly centred.
	sum = 0
	for i := 0; i < 2000; i++ {
		v := poisson(r, 100)
		if v < 0 {
			t.Fatal("negative poisson draw")
		}
		sum += float64(v)
	}
	if mean := sum / 2000; math.Abs(mean-100) > 3 {
		t.Fatalf("poisson(100) mean = %g", mean)
	}
}

func TestGeometricDelay(t *testing.T) {
	r := newTestRand()
	if geometricDelay(r, 0, 10) != 0 {
		t.Fatal("zero mean must yield 0")
	}
	for i := 0; i < 1000; i++ {
		d := geometricDelay(r, 4, 15)
		if d < 0 || d > 15 {
			t.Fatalf("delay %d out of [0,15]", d)
		}
	}
}

func TestWeightedIndex(t *testing.T) {
	r := newTestRand()
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[weightedIndex(r, []float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weights not respected: %v", counts)
	}
	// All-zero weights fall back to uniform without panicking.
	idx := weightedIndex(r, []float64{0, 0})
	if idx < 0 || idx > 1 {
		t.Fatalf("fallback index %d", idx)
	}
}

func TestBathtubFailureHoursInRange(t *testing.T) {
	r := newTestRand()
	for i := 0; i < 5000; i++ {
		h := bathtubFailureHours(r, maxPowerOnHours)
		if h < 0 || h > maxPowerOnHours {
			t.Fatalf("failure hours %g out of range", h)
		}
	}
}

func newTestRand() *rand.Rand { return driveRNG(42, "test-drive") }

func TestDriftConfigRaisesBackgroundWEvents(t *testing.T) {
	cfg := DriftConfig()
	cfg.FailureScale = 0.05
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy drives' W_49/W_15 daily rates after the drift start must
	// exceed the pre-drift rates.
	var preDays, postDays, preEvents, postEvents float64
	res.Data.Each(func(s *dataset.DriveSeries) {
		if res.Truth[s.SerialNumber].Faulty {
			return
		}
		for i := range s.Records {
			r := &s.Records[i]
			n := r.WCounts[2] + r.WCounts[3] // W_15 + W_49 catalogue positions
			if r.Day < cfg.DriftStartDay {
				preDays++
				preEvents += n
			} else {
				postDays++
				postEvents += n
			}
		}
	})
	if preDays == 0 || postDays == 0 {
		t.Skip("window too small")
	}
	preRate := preEvents / preDays
	postRate := postEvents / postDays
	if postRate <= preRate*1.5 {
		t.Fatalf("drift too weak: pre %g/day vs post %g/day", preRate, postRate)
	}
}

func TestTinyConfigValid(t *testing.T) {
	tiny := TinyConfig()
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DriftStartDay >= 0 {
		t.Fatal("headline config must not drift")
	}
}

func TestAbandonmentWidensTicketGap(t *testing.T) {
	cfg := TinyConfig()
	cfg.AbandonShare = 1
	cfg.AbandonMaxDays = 10
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := 0
	for sn, truth := range res.Truth {
		if !truth.Faulty {
			continue
		}
		s, ok := res.Data.Series(sn)
		if !ok {
			continue
		}
		if s.Records[len(s.Records)-1].Day > truth.FailDay {
			t.Fatalf("drive %s logs after failure", sn)
		}
		if s.Records[len(s.Records)-1].Day < truth.FailDay {
			early++
		}
	}
	if early == 0 {
		t.Fatal("AbandonShare=1 produced no early-ending telemetry")
	}
	// The knob must be rejected without a max.
	bad := TinyConfig()
	bad.AbandonShare = 0.5
	bad.AbandonMaxDays = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("AbandonShare without AbandonMaxDays accepted")
	}
}
