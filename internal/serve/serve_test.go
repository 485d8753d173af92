package serve

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/simfleet"
)

// The serving equivalence fixture: one simulated fleet and one trained
// vendor-I model per test binary. Registries come from the simulator's
// vendor specs, so firmware encoding is order-independent between the
// offline pipeline and the day-major serving feed.
var (
	cachedFleet *simfleet.Result
	cachedFrame *dataset.Frame
	cachedModel *core.Model
	cachedRegs  map[string]*firmware.Registry
)

func setup(t testing.TB) (*simfleet.Result, *core.Model, map[string]*firmware.Registry) {
	t.Helper()
	if cachedFleet == nil {
		cfg := simfleet.TinyConfig()
		cfg.FailureScale = 0.04
		fleet, err := simfleet.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		regs := make(map[string]*firmware.Registry)
		for _, v := range fleet.Config.Vendors {
			regs[v.Name] = v.Firmware
		}
		frame, err := dataset.FrameFromDataset(fleet.Data)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := core.DefaultConfig("I")
		mcfg.Registries = regs
		model, _, err := core.TrainOnFrame(frame, fleet.Tickets, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedFleet, cachedFrame, cachedModel, cachedRegs = fleet, frame, model, regs
	}
	return cachedFleet, cachedModel, cachedRegs
}

type key struct {
	sn  string
	day int
}

// offlineScores runs the full offline pipeline over the vendor's
// drives — clean, cumulate, extract every surviving drive-day, batch
// score — and returns the per-(drive, day) probabilities.
func offlineScores(t *testing.T, fleet *simfleet.Result, model *core.Model, regs map[string]*firmware.Registry) map[key]float64 {
	t.Helper()
	cfg := model.Config
	cfg.Registries = regs
	raw, err := dataset.FrameFromDataset(fleet.Data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PrepareFrame(raw, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := features.NewExtractor(cfg.Group, regs)
	if err != nil {
		t.Fatal(err)
	}
	set, err := features.BuildSampleSetFrame(p.Frame, labeling.Labels{}, ext, features.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	scores := ml.BatchScoresView(model.Classifier, set.All(), 0)
	out := make(map[key]float64, set.Len())
	for i := 0; i < set.Len(); i++ {
		out[key{set.SN(i), set.Day(i)}] = scores[i]
	}
	return out
}

// dayBatches groups the vendor's raw records day-major (drive order
// within a day), the serving arrival order.
func dayBatches(fleet *simfleet.Result, vendor string) [][]dataset.Record {
	byDay := make(map[int][]dataset.Record)
	var days []int
	fleet.Data.Each(func(s *dataset.DriveSeries) {
		if s.Vendor != vendor {
			return
		}
		for i := range s.Records {
			d := s.Records[i].Day
			if len(byDay[d]) == 0 {
				days = append(days, d)
			}
			byDay[d] = append(byDay[d], s.Records[i])
		}
	})
	sort.Ints(days)
	out := make([][]dataset.Record, 0, len(days))
	for _, d := range days {
		out = append(out, byDay[d])
	}
	return out
}

func runDays(t *testing.T, s *Scorer, batches [][]dataset.Record) []Assessment {
	t.Helper()
	var out []Assessment
	for _, batch := range batches {
		as, _, err := s.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, as...)
	}
	return out
}

// TestObserveDayMatchesOfflinePipeline is the serving half of the
// equivalence suite: a day-major sharded ObserveDay feed over the whole
// collection window produces exactly the drive-day scores of the
// offline pipeline + ml.BatchScores, bit-identical, at every tested
// worker/shard combination, with the same set of surviving drive-days.
func TestObserveDayMatchesOfflinePipeline(t *testing.T) {
	fleet, model, regs := setup(t)
	offline := offlineScores(t, fleet, model, regs)
	batches := dayBatches(fleet, "I")

	var first []Assessment
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {1, 32}, {0, 32}, {3, 5}} {
		s, err := New(model, Options{Workers: tc.workers, Shards: tc.shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		got := runDays(t, s, batches)

		online := make(map[key]float64, len(got))
		droppedSN := make(map[string]bool)
		for _, as := range got {
			if as.Dropped {
				droppedSN[as.SerialNumber] = true
				continue
			}
			online[key{as.SerialNumber, as.Day}] = as.Probability
		}
		// Every offline drive-day must score bit-identically online.
		for k, want := range offline {
			gotP, ok := online[k]
			if !ok {
				t.Fatalf("workers=%d shards=%d: offline row (%s, %d) missing online", tc.workers, tc.shards, k.sn, k.day)
			}
			if math.Float64bits(gotP) != math.Float64bits(want) {
				t.Fatalf("workers=%d shards=%d: (%s, %d): online %v, offline %v", tc.workers, tc.shards, k.sn, k.day, gotP, want)
			}
		}
		// The offline clean drops an over-gapped drive retroactively,
		// so its whole series vanishes from the offline set; online the
		// same drive scores up to the gap and is dropped from there.
		// Any online row absent offline must belong to such a drive.
		for k := range online {
			if _, ok := offline[k]; ok {
				continue
			}
			if !droppedSN[k.sn] {
				t.Fatalf("workers=%d shards=%d: online row (%s, %d) missing offline but drive never dropped", tc.workers, tc.shards, k.sn, k.day)
			}
		}
		if len(droppedSN) == 0 {
			t.Fatalf("workers=%d shards=%d: fixture produced no dropped drives; equivalence under drop untested", tc.workers, tc.shards)
		}

		// Full output (order, hysteresis, drop markers) must be
		// identical at every concurrency setting.
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("workers=%d shards=%d: %d assessments, first run had %d", tc.workers, tc.shards, len(got), len(first))
		}
		for i := range got {
			a, b := got[i], first[i]
			if a.SerialNumber != b.SerialNumber || a.Day != b.Day || a.Dropped != b.Dropped ||
				a.Flagged != b.Flagged || a.Alarmed != b.Alarmed || a.Interpolated != b.Interpolated ||
				a.ConsecutiveFlags != b.ConsecutiveFlags ||
				math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
				t.Fatalf("workers=%d shards=%d: assessment %d differs from first run: %+v vs %+v", tc.workers, tc.shards, i, a, b)
			}
		}
	}
}

// TestReplayFrameBootstrapMatchesFromScratch: catching up from a
// historical frame and then serving the remaining days must be
// indistinguishable from having served every day — same scores, same
// hysteresis, bit-identical.
func TestReplayFrameBootstrapMatchesFromScratch(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	if len(batches) < 20 {
		t.Fatalf("only %d day batches", len(batches))
	}
	splitIdx := len(batches) - 7
	splitDay := batches[splitIdx][0].Day

	full, err := New(model, Options{Workers: 0, Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, full, batches[:splitIdx])
	// Assessments produced while serving the tail — including
	// mean-filled rows dated before the split.
	wantTail := runDays(t, full, batches[splitIdx:])

	hist := cachedFrame.Until(splitDay - 1)
	boot, err := New(model, Options{Workers: 0, Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := boot.ReplayFrame(hist.FilterVendor("I"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Drives == 0 || stats.Records == 0 || stats.Rows < stats.Records-stats.Drives {
		t.Fatalf("implausible replay stats: %+v", stats)
	}
	got := runDays(t, boot, batches[splitIdx:])

	// The bootstrapped run has no flag history, so ConsecutiveFlags can
	// legitimately differ on the first serve days for drives that were
	// mid-run at the split; scores, days and drop markers cannot.
	if len(got) != len(wantTail) {
		t.Fatalf("bootstrapped run: %d assessments, from-scratch tail has %d", len(got), len(wantTail))
	}
	for i := range got {
		a, b := got[i], wantTail[i]
		if a.SerialNumber != b.SerialNumber || a.Day != b.Day || a.Dropped != b.Dropped ||
			a.Interpolated != b.Interpolated ||
			math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
			t.Fatalf("assessment %d: bootstrapped %+v vs from-scratch %+v", i, a, b)
		}
	}
}

// trainAsOf trains the fixture's vendor-I model on the telemetry and
// tickets up to day, as a model iteration in deployment does.
func trainAsOf(t *testing.T, day int) *core.Model {
	t.Helper()
	fleet, _, regs := setup(t)
	cfg := core.DefaultConfig("I")
	cfg.Registries = regs
	model, _, err := core.TrainOnFrame(cachedFrame.Until(day), fleet.Tickets.Until(day), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestBootstrapThenServeAcrossRetrain is the deployment loop: a model
// trained as of day 80 bootstraps from the history up to then, serves
// the following days, and a re-trained model pushed mid-stream keeps
// every drive's accumulated state.
func TestBootstrapThenServeAcrossRetrain(t *testing.T) {
	fleet, _, regs := setup(t)
	const trainDay = 80
	s, err := New(trainAsOf(t, trainDay), Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.ReplayFrame(cachedFrame.Until(trainDay).FilterVendor("I"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Drives == 0 || stats.Records == 0 {
		t.Fatalf("empty bootstrap: %+v", stats)
	}
	byDay := make(map[int][]dataset.Record)
	for _, b := range dayBatches(fleet, "I") {
		byDay[b[0].Day] = b
	}

	scored := 0
	for day := trainDay + 1; day <= trainDay+5; day++ {
		recs := byDay[day]
		as, st, err := s.ObserveDay(recs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != len(recs) || st.Scored+st.Dropped+st.Quarantined+st.Skipped != len(as) {
			t.Fatalf("day %d: stats %+v for %d records, %d assessments", day, st, len(recs), len(as))
		}
		for _, a := range as {
			if !a.Dropped && !a.Quarantined && (a.Day > day || a.Probability < 0 || a.Probability > 1) {
				t.Fatalf("day %d: implausible assessment %+v", day, a)
			}
		}
		scored += st.Scored
	}
	if scored == 0 {
		t.Fatal("served days scored nothing")
	}

	drives := s.Drives()
	last := make([]int, len(drives))
	for i, sn := range drives {
		last[i], _ = s.LastDay(sn)
	}
	next := trainAsOf(t, trainDay+5)
	if err := s.UpdateModel(next); err != nil {
		t.Fatal(err)
	}
	if s.Threshold() != next.Threshold {
		t.Fatal("threshold did not follow the re-trained model")
	}
	for i, sn := range s.Drives() {
		if d, _ := s.LastDay(sn); i >= len(drives) || sn != drives[i] || d != last[i] {
			t.Fatalf("re-training disturbed drive state: %s at day %d", sn, d)
		}
	}
	if _, st, err := s.ObserveDay(byDay[trainDay+6]); err != nil || st.Records == 0 || st.Scored == 0 {
		t.Fatalf("post-iteration day: stats %+v, err %v", st, err)
	}
}

// TestReplayFrameRejectsCumulated pins the raw-frame contract.
func TestReplayFrameRejectsCumulated(t *testing.T) {
	_, model, regs := setup(t)
	f, _, err := dataset.PreparePipeline(cachedFrame, dataset.PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplayFrame(f); err == nil {
		t.Fatal("cumulated frame accepted")
	}
}

// TestScorerLifecycle covers model swap, drive listing, reset, and the
// out-of-order contract (now fail-soft: a replayed day quarantines the
// affected drives instead of failing the batch).
func TestScorerLifecycle(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ObserveDay(batches[0]); err != nil {
		t.Fatal(err)
	}
	if len(s.Drives()) == 0 {
		t.Fatal("no drives tracked")
	}
	if err := s.UpdateModel(model); err != nil {
		t.Fatal(err)
	}
	bad := *model
	badCfg := model.Config
	badCfg.Group = features.GroupS
	bad.Config = badCfg
	if err := s.UpdateModel(&bad); err == nil {
		t.Fatal("group change accepted")
	}
	// Re-feeding day 0 violates day ordering for every drive in the
	// batch: each must be quarantined with a rolling-error reason, not
	// fail the sweep.
	as, st, err := s.ObserveDay(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != len(batches[0]) {
		t.Fatalf("replayed day: %d quarantined, want %d", st.Quarantined, len(batches[0]))
	}
	for i := range as {
		if !as[i].Quarantined {
			t.Fatalf("assessment %d of replayed day not marked quarantined: %+v", i, as[i])
		}
	}
	ledger := s.QuarantineReasons()
	if len(ledger) != len(batches[0]) {
		t.Fatalf("ledger holds %d drives, want %d", len(ledger), len(batches[0]))
	}
	for _, e := range ledger {
		if e.Reason != QuarantineRollingError {
			t.Fatalf("ledger entry %+v: want reason %v", e, QuarantineRollingError)
		}
	}
	sn := s.Drives()[0]
	if e, ok := s.Quarantined(sn); !ok || e.SerialNumber != sn {
		t.Fatalf("Quarantined(%s) = %+v, %v", sn, e, ok)
	}
	if !s.ResetDrive(sn) || s.ResetDrive(sn) {
		t.Fatal("ResetDrive bookkeeping wrong")
	}
	if _, ok := s.Quarantined(sn); ok {
		t.Fatal("ResetDrive left a quarantine entry behind")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
}
