package serve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/firmware"
)

// runDaysStats is runDays plus aggregated sweep stats.
func runDaysStats(t *testing.T, s *Scorer, batches [][]dataset.Record) ([]Assessment, SweepStats) {
	t.Helper()
	var out []Assessment
	var total SweepStats
	for _, batch := range batches {
		as, st, err := s.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Records; got != len(batch) {
			t.Fatalf("stats.Records = %d for a %d-record batch", got, len(batch))
		}
		out = append(out, as...)
		total.Records += st.Records
		total.Scored += st.Scored
		total.Dropped += st.Dropped
		total.Quarantined += st.Quarantined
		total.Skipped += st.Skipped
		total.Degraded += st.Degraded
	}
	return out, total
}

// corruptBatches applies a seeded campaign to every day batch.
func corruptBatches(batches [][]dataset.Record, seed int64, rate float64) ([][]dataset.Record, []faultinject.Corruption) {
	c := faultinject.NewRecordCorruptor(faultinject.CorruptorConfig{Seed: seed, Rate: rate})
	out := make([][]dataset.Record, len(batches))
	var log []faultinject.Corruption
	for i, b := range batches {
		var l []faultinject.Corruption
		out[i], l = c.Corrupt(b)
		log = append(log, l...)
	}
	return out, log
}

// TestCorruptionCampaignIsolatesDrives is the tentpole acceptance
// test: a seeded corruption campaign over the whole collection window
// completes without a single batch error, quarantines exactly the
// touched drives, leaves every untouched drive's assessments
// bit-identical to a clean run, and produces the same ledger at every
// worker/shard combination.
func TestCorruptionCampaignIsolatesDrives(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	cleanAs := runDays(t, clean, batches)
	cleanBySN := make(map[string][]Assessment)
	for _, a := range cleanAs {
		cleanBySN[a.SerialNumber] = append(cleanBySN[a.SerialNumber], a)
	}

	const seed, rate = 17, 0.02
	dirty, clog := corruptBatches(batches, seed, rate)
	if len(clog) == 0 {
		t.Fatal("campaign injected nothing; raise the rate")
	}
	touched := make(map[string]bool)
	for _, c := range clog {
		touched[c.SerialNumber] = true
	}
	if len(touched) == len(cleanBySN) {
		t.Fatal("campaign touched every drive; nothing left to prove isolation with")
	}

	var firstLedger []QuarantineEntry
	var firstAs []Assessment
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {0, 32}, {3, 5}} {
		s, err := New(model, Options{Workers: tc.workers, Shards: tc.shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		// Run the batches by hand so quarantine can be tracked per
		// batch: once a drive has produced a Quarantined entry, no
		// later batch may score it.
		var got []Assessment
		var stats SweepStats
		quarSet := make(map[string]bool)
		for bi, batch := range dirty {
			as, st, err := s.ObserveDay(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range as {
				a := &as[i]
				if quarSet[a.SerialNumber] && !a.Quarantined {
					t.Fatalf("workers=%d shards=%d: batch %d scored drive %s after quarantine: %+v", tc.workers, tc.shards, bi, a.SerialNumber, *a)
				}
			}
			for i := range as {
				if as[i].Quarantined {
					quarSet[as[i].SerialNumber] = true
				}
			}
			got = append(got, as...)
			stats.Records += st.Records
			stats.Scored += st.Scored
			stats.Dropped += st.Dropped
			stats.Quarantined += st.Quarantined
			stats.Skipped += st.Skipped
			stats.Degraded += st.Degraded
		}

		// Every quarantined drive must have been touched by the
		// campaign, and the sweep must have quarantined at least one.
		ledger := s.QuarantineReasons()
		if len(ledger) == 0 {
			t.Fatalf("workers=%d shards=%d: campaign quarantined nothing", tc.workers, tc.shards)
		}
		for _, e := range ledger {
			if !touched[e.SerialNumber] {
				t.Fatalf("workers=%d shards=%d: untouched drive %s quarantined: %+v", tc.workers, tc.shards, e.SerialNumber, e)
			}
		}
		if stats.Quarantined != len(ledger) {
			t.Fatalf("workers=%d shards=%d: stats counted %d quarantines, ledger holds %d", tc.workers, tc.shards, stats.Quarantined, len(ledger))
		}

		// Untouched drives score bit-identically to the clean run.
		gotBySN := make(map[string][]Assessment)
		for _, a := range got {
			gotBySN[a.SerialNumber] = append(gotBySN[a.SerialNumber], a)
		}
		for sn, want := range cleanBySN {
			if touched[sn] {
				continue
			}
			gotSN := gotBySN[sn]
			if len(gotSN) != len(want) {
				t.Fatalf("workers=%d shards=%d: healthy drive %s: %d assessments, clean run had %d", tc.workers, tc.shards, sn, len(gotSN), len(want))
			}
			for i := range want {
				a, b := gotSN[i], want[i]
				if a.Day != b.Day || a.Flagged != b.Flagged || a.Dropped != b.Dropped ||
					math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
					t.Fatalf("workers=%d shards=%d: healthy drive %s assessment %d: %+v vs clean %+v", tc.workers, tc.shards, sn, i, a, b)
				}
			}
		}

		// Ledger and full output replay identically across
		// concurrency settings.
		if firstLedger == nil {
			firstLedger, firstAs = ledger, got
			continue
		}
		if !reflect.DeepEqual(ledger, firstLedger) {
			t.Fatalf("workers=%d shards=%d: ledger differs from first run", tc.workers, tc.shards)
		}
		if len(got) != len(firstAs) {
			t.Fatalf("workers=%d shards=%d: %d assessments, first run had %d", tc.workers, tc.shards, len(got), len(firstAs))
		}
		for i := range got {
			a, b := got[i], firstAs[i]
			if a != b {
				t.Fatalf("workers=%d shards=%d: assessment %d differs: %+v vs %+v", tc.workers, tc.shards, i, a, b)
			}
		}
	}
}

// TestDegradedFallbackAndRecovery: a scoring-backend fault swings the
// day onto the SMART-threshold detector — flagged rows carry Degraded
// — and the next healthy day recovers with scores bit-identical to a
// never-faulted run (the rolling feature state advances regardless of
// how the day was scored).
func TestDegradedFallbackAndRecovery(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches[:3])

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 1, ScoreFirst: 1})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Score: faults.Score}})
	if err != nil {
		t.Fatal(err)
	}

	day0, st0, err := s.ObserveDay(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("scorer not degraded after a score fault")
	}
	if st0.Degraded != st0.Scored || st0.Scored == 0 {
		t.Fatalf("degraded day stats: %+v", st0)
	}
	for i := range day0 {
		if day0[i].Dropped || day0[i].Quarantined {
			continue
		}
		if !day0[i].Degraded {
			t.Fatalf("assessment %d of degraded day not marked: %+v", i, day0[i])
		}
		if p := day0[i].Probability; p != 0 && p != 1 {
			t.Fatalf("fallback detector emitted non-binary probability %v", p)
		}
	}

	// Recovery: subsequent days score exactly as the clean run did.
	rest, _ := runDaysStats(t, s, batches[1:3])
	if s.Degraded() {
		t.Fatal("scorer still degraded after a healthy batch")
	}
	wantRest := want[len(want)-len(rest):]
	for i := range rest {
		a, b := rest[i], wantRest[i]
		if a.Degraded {
			t.Fatalf("post-recovery assessment still degraded: %+v", a)
		}
		if a.SerialNumber != b.SerialNumber || a.Day != b.Day ||
			math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
			t.Fatalf("post-recovery assessment %d: %+v vs clean %+v", i, a, b)
		}
	}
}

// TestObserveFaultIsRetrySafe: a transient observe fault fires before
// any state mutates, so retrying the same batch converges on output
// bit-identical to a never-faulted run.
func TestObserveFaultIsRetrySafe(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")[:5]

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches)

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 3, ObserveFirst: 2, ObserveP: 0.3})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Observe: faults.Observe}})
	if err != nil {
		t.Fatal(err)
	}
	var got []Assessment
	retries := 0
	for _, batch := range batches {
		for {
			as, _, err := s.ObserveDay(batch)
			if err == nil {
				got = append(got, as...)
				break
			}
			if !faultinject.IsTransient(err) {
				t.Fatalf("observe fault not transient: %v", err)
			}
			retries++
			if retries > 100 {
				t.Fatal("retry loop did not converge")
			}
		}
	}
	if retries < 2 {
		t.Fatalf("only %d retries; forced faults did not fire", retries)
	}
	if len(got) != len(want) {
		t.Fatalf("%d assessments after retries, clean run had %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("assessment %d: %+v vs clean %+v", i, got[i], want[i])
		}
	}
}

// TestSwapFaultKeepsModelServing: a failed UpdateModel leaves the old
// model scoring and a later push succeeds.
func TestSwapFaultKeepsModelServing(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 5, SwapFirst: 1})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Swap: faults.Swap}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches[:2])

	got := runDays(t, s, batches[:1])
	if err := s.UpdateModel(model); err == nil {
		t.Fatal("injected swap fault did not surface")
	} else if !faultinject.IsTransient(err) {
		t.Fatalf("swap fault not transient: %v", err)
	}
	got = append(got, runDays(t, s, batches[1:2])...)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("assessment %d after failed swap: %+v vs %+v", i, got[i], want[i])
		}
	}
	if err := s.UpdateModel(model); err != nil {
		t.Fatalf("retried swap failed: %v", err)
	}
}

// TestReviveDrive: quarantine a drive via a duplicate day, revive it,
// and watch it score again as a fresh series while ReviveDrive refuses
// healthy or unknown drives.
func TestReviveDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ObserveDay(batches[0]); err != nil {
		t.Fatal(err)
	}
	sn := batches[0][0].SerialNumber
	if s.ReviveDrive(sn) {
		t.Fatal("ReviveDrive accepted a healthy drive")
	}
	if s.ReviveDrive("no-such-drive") {
		t.Fatal("ReviveDrive accepted an unknown drive")
	}

	// Re-feed the drive's day-0 record: duplicate day, quarantine.
	_, st, err := s.ObserveDay(batches[0][:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Fatalf("duplicate day did not quarantine: %+v", st)
	}
	if e, ok := s.Quarantined(sn); !ok || e.Reason != QuarantineRollingError {
		t.Fatalf("Quarantined(%s) = %+v, %v", sn, e, ok)
	}

	// While quarantined, its records are skipped.
	var next dataset.Record
	found := false
	for _, b := range batches[1:] {
		for i := range b {
			if b[i].SerialNumber == sn {
				next, found = b[i], true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatalf("fixture has no later record for %s", sn)
	}
	as, st, err := s.ObserveDay([]dataset.Record{next})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || !as[0].Quarantined {
		t.Fatalf("quarantined drive's record not skipped: %+v %+v", st, as)
	}

	if !s.ReviveDrive(sn) {
		t.Fatal("ReviveDrive refused a quarantined drive")
	}
	if _, ok := s.Quarantined(sn); ok {
		t.Fatal("revived drive still in ledger")
	}
	// The revived drive starts a fresh series: its next record is
	// accepted and scored.
	as, st, err = s.ObserveDay([]dataset.Record{next})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored == 0 || as[0].Quarantined || as[0].Dropped {
		t.Fatalf("revived drive did not score: %+v %+v", st, as)
	}
}

// TestStrictFirmwareQuarantine: under StrictFirmware a version missing
// from the vendor registry quarantines the drive; the permissive
// default mints a first-seen code and scores it.
func TestStrictFirmwareQuarantine(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	bad := make([]dataset.Record, len(batches[0]))
	copy(bad, batches[0])
	bad[0] = bad[0].Clone()
	bad[0].Firmware = firmware.Version("99.99.99-bogus")

	strict, err := New(model, Options{Registries: regs, StrictFirmware: true})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := strict.ObserveDay(bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Fatalf("strict scorer stats: %+v", st)
	}
	if e, ok := strict.Quarantined(bad[0].SerialNumber); !ok || e.Reason != QuarantineUnknownFirmware {
		t.Fatalf("ledger entry %+v, %v", e, ok)
	}

	lax, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err = lax.ObserveDay(bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 {
		t.Fatalf("permissive scorer quarantined: %+v", st)
	}
}

// TestReplayFrameQuarantinesBadDrive: a drive whose history conflicts
// with already-ingested state quarantines during replay instead of
// failing the whole bootstrap.
func TestReplayFrameQuarantinesBadDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	splitIdx := len(batches) - 7
	splitDay := batches[splitIdx][0].Day
	hist := cachedFrame.Until(splitDay - 1)

	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	// Observe one drive at the split day first; its replay rows are now
	// out of order while every other drive replays cleanly.
	var probe []dataset.Record
	for i := range batches[splitIdx] {
		probe = append(probe[:0], batches[splitIdx][i])
		break
	}
	if _, _, err := s.ObserveDay(probe); err != nil {
		t.Fatal(err)
	}
	stats, err := s.ReplayFrame(hist.FilterVendor("I"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("replay stats %+v, want exactly the probe drive quarantined", stats)
	}
	if e, ok := s.Quarantined(probe[0].SerialNumber); !ok || e.Reason != QuarantineRollingError {
		t.Fatalf("probe drive ledger entry %+v, %v", e, ok)
	}
	if stats.Drives < 2 || stats.Records == 0 {
		t.Fatalf("other drives did not replay: %+v", stats)
	}
}

// TestMidSessionOpsDeterministic pins the satellite contract: model
// swaps, drive resets, and revives issued mid-session produce
// identical output at every worker/shard combination.
func TestMidSessionOpsDeterministic(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	half := len(batches) / 2
	resetSN := batches[0][0].SerialNumber

	swapped := *model
	swapped.Threshold = model.Threshold * 0.5

	run := func(workers, shards int) []Assessment {
		s, err := New(model, Options{Workers: workers, Shards: shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		out := runDays(t, s, batches[:half])
		if err := s.UpdateModel(&swapped); err != nil {
			t.Fatal(err)
		}
		if !s.ResetDrive(resetSN) {
			t.Fatalf("ResetDrive(%s) found nothing", resetSN)
		}
		return append(out, runDays(t, s, batches[half:])...)
	}

	first := run(1, 1)
	for _, tc := range []struct{ workers, shards int }{{0, 32}, {3, 5}} {
		got := run(tc.workers, tc.shards)
		if len(got) != len(first) {
			t.Fatalf("workers=%d shards=%d: %d assessments, serial run had %d", tc.workers, tc.shards, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("workers=%d shards=%d: assessment %d differs: %+v vs %+v", tc.workers, tc.shards, i, got[i], first[i])
			}
		}
	}
}

// TestQuarantineOrderMatchesSerialPrepass pins the decisions the
// validation phase makes per shard to the ones a serial pass over the
// batch makes: hand-built batches mix a valid then an invalid record
// of one drive, an invalid then a valid one, a duplicate day, a record
// of an already-quarantined drive, new drives, registry-unknown
// firmware first seen on many drives, and an unknown version on an
// invalid record, with StrictFirmware off and on. Every worker/shard
// combination must give the serial scorer's assessments (probabilities
// by Float64bits), sweep stats, ledger, drive set and firmware codes,
// and each case's expected outcome is asserted on its own.
func TestQuarantineOrderMatchesSerialPrepass(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	days := batches[:5]
	d1, d2, d3 := days[1][0].Day, days[2][0].Day, days[3][0].Day
	at := make([]map[string]dataset.Record, len(days))
	for i, b := range days {
		at[i] = make(map[string]dataset.Record, len(b))
		for _, r := range b {
			at[i][r.SerialNumber] = r
		}
	}
	// The cases' drives report on every one of the first four days.
	var pool []string
	for _, r := range days[0] {
		if _, ok := at[1][r.SerialNumber]; !ok {
			continue
		}
		if _, ok := at[2][r.SerialNumber]; !ok {
			continue
		}
		if _, ok := at[3][r.SerialNumber]; ok {
			pool = append(pool, r.SerialNumber)
		}
	}
	const nUnknown = 6 // drives that each first show a registry-unknown version
	if len(pool) < 4+nUnknown+1 {
		t.Fatalf("fixture has %d drives reporting on days %d..%d, need %d", len(pool), days[0][0].Day, d3, 4+nUnknown+1)
	}
	rec := func(day int, sn string) dataset.Record { r := at[day][sn]; return r.Clone() }
	nan := func(r dataset.Record) dataset.Record { r.Smart[0] = math.NaN(); return r }
	withFW := func(r dataset.Record, v string) dataset.Record { r.Firmware = firmware.Version(v); return r }
	renamed := func(r dataset.Record, sn string) dataset.Record { r.SerialNumber = sn; return r }
	// withRest completes a hand-built batch with the day's records of
	// drives it does not mention.
	withRest := func(day int, batch []dataset.Record) []dataset.Record {
		seen := make(map[string]bool)
		for _, r := range batch {
			seen[r.SerialNumber] = true
		}
		for _, r := range days[day] {
			if !seen[r.SerialNumber] {
				batch = append(batch, r)
			}
		}
		return batch
	}
	unknown := func(i int) string { return fmt.Sprintf("U-%d", i) }

	// Permissive firmware.
	a, b, c, d := pool[0], pool[1], pool[2], pool[3]
	es := pool[4 : 4+nUnknown+1]
	day1 := withRest(1, []dataset.Record{nan(rec(1, d))})
	shortW := rec(2, b)
	shortW.WCounts = shortW.WCounts[:2]
	shortB := renamed(rec(2, c), "NEW-BAD")
	shortB.BCounts = shortB.BCounts[:1]
	day2 := []dataset.Record{
		withFW(shortW, "U-invalid"),   // invalid, then valid: b
		withFW(rec(2, a), "U-routed"), // valid, then invalid: a
	}
	for i, sn := range es[:nUnknown] {
		day2 = append(day2, withFW(rec(2, sn), unknown(i)))
	}
	day2 = append(day2,
		withFW(rec(2, es[nUnknown]), unknown(0)), // a version already seen this batch
		nan(rec(3, a)),
		rec(3, b),
		rec(2, c), rec(2, c), // duplicate day
		rec(2, d), // quarantined on day 1
		shortB,    // new drive, invalid
		renamed(rec(2, d), "NEW-OK"),
	)
	day2 = withRest(2, day2)
	lax := [][]dataset.Record{days[0], day1, day2, days[3], days[4]}
	laxVersions := []string{"U-routed"}
	for i := 0; i < nUnknown; i++ {
		laxVersions = append(laxVersions, unknown(i))
	}
	laxVersions = append(laxVersions, "U-invalid") // never primed: probed last

	// Strict firmware.
	g, h, k := pool[0], pool[1], pool[2]
	strictDay2 := withRest(2, []dataset.Record{
		withFW(rec(2, g), "U-strict"),
		rec(2, h), // valid, then unknown firmware
		withFW(nan(rec(2, k)), "U-both"),
		withFW(rec(3, h), "U-strict2"),
		rec(3, g),
	})
	strict := [][]dataset.Record{days[0], days[1], strictDay2, days[3], days[4]}
	strictVersions := []string{"U-strict", "U-strict2", "U-both"}

	type result struct {
		as     [][]Assessment
		stats  []SweepStats
		ledger []QuarantineEntry
		drives []string
		codes  []float64
		spread bool // the unknown versions' first drives span ≥ 2 shards
	}
	play := func(strictFW bool, feed [][]dataset.Record, versions []string, workers, shards int) result {
		s, err := New(model, Options{Workers: workers, Shards: shards, Registries: regs, StrictFirmware: strictFW})
		if err != nil {
			t.Fatal(err)
		}
		var res result
		for _, batch := range feed {
			as, st, err := s.ObserveDay(batch)
			if err != nil {
				t.Fatal(err)
			}
			res.as = append(res.as, as)
			res.stats = append(res.stats, st)
		}
		res.ledger = s.QuarantineReasons()
		res.drives = s.Drives()
		fi := -1
		for i, name := range s.ext.Names() {
			if name == "F" {
				fi = i
			}
		}
		if fi < 0 {
			t.Fatal("model group has no firmware feature")
		}
		probe := days[0][0].Clone()
		for _, rel := range regs["I"].Releases() {
			probe.Firmware = rel.Version
			res.codes = append(res.codes, s.ext.Extract(&probe)[fi])
		}
		for _, v := range versions {
			probe.Firmware = firmware.Version(v)
			res.codes = append(res.codes, s.ext.Extract(&probe)[fi])
		}
		shardSet := make(map[int]bool)
		for _, sn := range es[:nUnknown] {
			shardSet[s.shardOf(sn)] = true
		}
		res.spread = len(shardSet) > 1
		return res
	}
	same := func(t *testing.T, got, want result) {
		t.Helper()
		for day := range want.as {
			if len(got.as[day]) != len(want.as[day]) {
				t.Fatalf("batch %d: %d assessments, serial %d", day, len(got.as[day]), len(want.as[day]))
			}
			for i, w := range want.as[day] {
				g := got.as[day][i]
				if math.Float64bits(g.Probability) != math.Float64bits(w.Probability) {
					t.Fatalf("batch %d assessment %d: probability %v, serial %v", day, i, g.Probability, w.Probability)
				}
				g.Probability = w.Probability
				if g != w {
					t.Fatalf("batch %d assessment %d: %+v, serial %+v", day, i, g, w)
				}
			}
			if got.stats[day] != want.stats[day] {
				t.Fatalf("batch %d: stats %+v, serial %+v", day, got.stats[day], want.stats[day])
			}
		}
		if !reflect.DeepEqual(got.ledger, want.ledger) {
			t.Fatalf("ledger %+v, serial %+v", got.ledger, want.ledger)
		}
		if !reflect.DeepEqual(got.drives, want.drives) {
			t.Fatalf("%d drives, serial %d", len(got.drives), len(want.drives))
		}
		for i := range want.codes {
			if math.Float64bits(got.codes[i]) != math.Float64bits(want.codes[i]) {
				t.Fatalf("firmware codes %v, serial %v", got.codes, want.codes)
			}
		}
	}
	// outcomes returns sn's assessments in one batch.
	outcomes := func(as []Assessment, sn string) []Assessment {
		var out []Assessment
		for _, x := range as {
			if x.SerialNumber == sn {
				out = append(out, x)
			}
		}
		return out
	}
	quarantinedOnly := func(t *testing.T, as []Assessment, sn string, n int) {
		t.Helper()
		got := outcomes(as, sn)
		if len(got) != n {
			t.Fatalf("%s: %d assessments, want %d", sn, len(got), n)
		}
		for _, x := range got {
			if !x.Quarantined {
				t.Fatalf("%s: %+v, want quarantined", sn, x)
			}
		}
	}
	entry := func(t *testing.T, ledger []QuarantineEntry, sn string, day int, reason QuarantineReason) QuarantineEntry {
		t.Helper()
		for _, e := range ledger {
			if e.SerialNumber == sn {
				if e.Day != day || e.Reason != reason {
					t.Fatalf("%s: ledger entry %+v, want day %d reason %s", sn, e, day, reason)
				}
				return e
			}
		}
		t.Fatalf("%s: no ledger entry", sn)
		return QuarantineEntry{}
	}
	nreg := float64(regs["I"].Len())

	t.Run("permissive", func(t *testing.T) {
		want := play(false, lax, laxVersions, 1, 1)
		as, st := want.as[2], want.stats[2]
		// Valid then invalid: the valid record is skipped, not scored.
		quarantinedOnly(t, as, a, 2)
		entry(t, want.ledger, a, d3, QuarantineBadValue)
		// Invalid then valid: the valid record is skipped.
		quarantinedOnly(t, as, b, 2)
		entry(t, want.ledger, b, d2, QuarantineBadRecord)
		// Duplicate day: the first copy scores, the second quarantines.
		if got := outcomes(as, c); len(got) != 2 || got[0].Quarantined || got[0].Dropped || !got[1].Quarantined {
			t.Fatalf("duplicate day: %+v", got)
		}
		entry(t, want.ledger, c, d2, QuarantineRollingError)
		// Already quarantined on day 1: skipped.
		quarantinedOnly(t, as, d, 1)
		entry(t, want.ledger, d, d1, QuarantineBadValue)
		// New drives: the invalid one is quarantined, the valid one scores.
		quarantinedOnly(t, as, "NEW-BAD", 1)
		entry(t, want.ledger, "NEW-BAD", d2, QuarantineBadRecord)
		if got := outcomes(as, "NEW-OK"); len(got) != 1 || got[0].Quarantined || got[0].Dropped {
			t.Fatalf("new valid drive: %+v", got)
		}
		if len(want.ledger) != 5 {
			t.Fatalf("ledger %+v, want 5 entries", want.ledger)
		}
		if st.Quarantined != 4 || st.Skipped != 3 || st.Records != len(day2) {
			t.Fatalf("day 2 stats %+v, want 4 quarantined and 3 skipped of %d", st, len(day2))
		}
		if st := want.stats[3]; st.Skipped != 4 || st.Quarantined != 0 {
			t.Fatalf("day 3 stats %+v, want the 4 quarantined drives skipped", st)
		}
		for _, sn := range []string{"NEW-BAD", "NEW-OK"} {
			if i := sort.SearchStrings(want.drives, sn); i == len(want.drives) || want.drives[i] != sn {
				t.Fatalf("new drive %s has no slot", sn)
			}
		}
		// Unknown versions take first-seen codes in input order: the
		// routed-then-skipped record's version first, and the invalid
		// record's version never (it mints the next code when probed).
		codes := want.codes[regs["I"].Len():]
		for i := range laxVersions {
			if codes[i] != nreg+float64(i+1) {
				t.Fatalf("unknown versions %v coded %v, want %v.. in order", laxVersions, codes, nreg+1)
			}
		}
		spread := false
		for _, tc := range []struct{ workers, shards int }{{1, 7}, {1, 32}, {3, 1}, {3, 7}, {3, 32}} {
			got := play(false, lax, laxVersions, tc.workers, tc.shards)
			spread = spread || got.spread
			same(t, got, want)
		}
		if !spread {
			t.Fatal("the unknown versions' drives shared one shard at every shard count")
		}
	})

	t.Run("strict", func(t *testing.T) {
		want := play(true, strict, strictVersions, 1, 1)
		as, st := want.as[2], want.stats[2]
		quarantinedOnly(t, as, g, 2)
		e := entry(t, want.ledger, g, d2, QuarantineUnknownFirmware)
		if wantErr := fmt.Sprintf("serve: drive %s firmware %q not in vendor I registry", g, "U-strict"); e.Err != wantErr {
			t.Fatalf("ledger error %q, want %q", e.Err, wantErr)
		}
		quarantinedOnly(t, as, h, 2)
		entry(t, want.ledger, h, d3, QuarantineUnknownFirmware)
		// Validation runs before the registry check.
		quarantinedOnly(t, as, k, 1)
		entry(t, want.ledger, k, d2, QuarantineBadValue)
		if len(want.ledger) != 3 || st.Quarantined != 3 || st.Skipped != 2 {
			t.Fatalf("ledger %+v, day 2 stats %+v", want.ledger, st)
		}
		// No rejected version was primed.
		codes := want.codes[regs["I"].Len():]
		for i := range strictVersions {
			if codes[i] != nreg+float64(i+1) {
				t.Fatalf("rejected versions %v coded %v, want %v.. in probe order", strictVersions, codes, nreg+1)
			}
		}
		for _, tc := range []struct{ workers, shards int }{{1, 7}, {1, 32}, {3, 1}, {3, 7}, {3, 32}} {
			same(t, play(true, strict, strictVersions, tc.workers, tc.shards), want)
		}
	})
}
