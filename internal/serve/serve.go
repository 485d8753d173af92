// Package serve is the online scorer, the one serving path for both
// deployments: a fleet host scoring a day of fleet telemetry, and the
// on-machine monitor scoring its own drives' daily records (a batch of
// one drive-day is as valid as a fleet day). It
// ingests each batch at once: drives are sharded by serial hash across
// internal/parallel workers, each shard advances its drives'
// RollingStates and scores each new feature row by resuming the
// drive's own ml.Run — for the tree ensembles, the differential
// kernel's state from the drive's previous row, so a drive whose
// features barely moved since yesterday re-walks few trees or none —
// and per-shard results are merged back into input order
// deterministically. Feature rows and scores are bit-identical to the
// offline batch pipeline (dataset.NewPlan and its per-drive step →
// features.BuildSampleSet, scored by ml.ScoreBatch) at any worker or
// shard count.
//
// ObserveDay alternates serial passes with shard fan-outs. One serial
// pass routes each record to its drive's shard. In the validation
// phase each shard checks its records in input order and quarantines
// the corrupt ones. One serial pass then registers the surviving
// records' firmware versions with the encoders in input order — the
// only extractor mutation, so registry-unknown versions get first-seen
// codes in arrival order. In the advance phase each shard advances,
// scores and applies the alarm hysteresis; a last serial pass merges
// the results.
//
// Production telemetry is messy, so the scorer is fail-soft, not
// fail-stop. A record that fails validation or feature extraction
// quarantines that drive — with a typed reason — instead of aborting
// the fleet sweep; the rest of the day scores bit-identically to a run
// that never saw the bad record. A scoring-backend failure degrades
// the day onto the vendor SMART-threshold detector instead of losing
// it, and the scorer recovers by itself on the next healthy sweep.
// Quarantine decisions are made per drive in input order, and each
// drive lives in exactly one shard, so the ledger is deterministic at
// any worker or shard count.
//
// Consumer machines reboot constantly and fleet hosts restart, so the
// scorer's state persists: SaveStateFile checkpoints every drive's
// rolling state, flag run, alarm latch and quarantine entry, plus the
// arrival-order firmware codes, crash-safely, and a fresh scorer that
// LoadStateFiles it resumes exactly where the saved one stopped.
// Explain answers why a drive scores as it does: the top feature
// contributions to its last row, for models with attribution.
package serve

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// FaultHooks are the scorer's error seams for deterministic fault
// injection (see internal/faultinject). All fields are optional; the
// zero value disables injection and restores the exact production
// path.
type FaultHooks struct {
	// Observe runs at the top of ObserveDay, before any state mutates;
	// an error fails the whole batch transiently (safe to retry).
	Observe func() error
	// Score runs once per batch in which at least one record passes
	// validation, before any row is scored; an error forces the day
	// onto the degraded fallback detector.
	Score func() error
	// Swap runs at the top of UpdateModel; an error fails the swap and
	// keeps the current model serving.
	Swap func() error
}

// Options configures a Scorer.
type Options struct {
	// Workers bounds the goroutines of the shard fan-outs, which
	// validate, advance and score each shard's records: 0 = GOMAXPROCS,
	// 1 = serial. Outputs are identical at any setting.
	Workers int
	// Shards is the number of drive shards; 0 selects 32. More shards
	// than workers keeps the fan-out balanced when drive populations
	// are skewed.
	Shards int
	// AlarmAfter is how many consecutive flagged rows latch a drive's
	// alarm; 0 selects 2.
	AlarmAfter int
	// GapPolicy is the discontinuity optimisation applied online; the
	// zero value selects the model's own pipeline policy
	// (model.Config.GapPolicy), keeping serving faithful to training.
	GapPolicy dataset.GapPolicy
	// Registries supplies per-vendor firmware ladders; nil falls back
	// to first-seen-order encoding.
	Registries map[string]*firmware.Registry
	// StrictFirmware quarantines records whose firmware version is
	// absent from their vendor's registry instead of minting a
	// first-seen code — the right setting when registries are complete
	// and an unknown version means a corrupt or spoofed record.
	// Vendors without a registry are never strict-checked.
	StrictFirmware bool
	// Faults injects deterministic failures for chaos testing; the
	// zero value disables injection.
	Faults FaultHooks
}

// QuarantineReason classifies why a drive was quarantined.
type QuarantineReason uint8

const (
	// QuarantineNone marks a healthy drive.
	QuarantineNone QuarantineReason = iota
	// QuarantineBadRecord is a malformed record: empty serial, negative
	// day, or wrong counter widths.
	QuarantineBadRecord
	// QuarantineBadValue is value-level corruption: NaN/Inf telemetry
	// or feature values, a running W/B cumulate that overflows, or
	// negative event counters.
	QuarantineBadValue
	// QuarantineRollingError is a rolling-state failure: out-of-order
	// or duplicate days, changed counter widths, or an unfillable gap.
	QuarantineRollingError
	// QuarantineUnknownFirmware is a firmware version absent from the
	// vendor's registry under Options.StrictFirmware.
	QuarantineUnknownFirmware
)

// String names the reason for ledgers and logs.
func (r QuarantineReason) String() string {
	switch r {
	case QuarantineNone:
		return "none"
	case QuarantineBadRecord:
		return "bad-record"
	case QuarantineBadValue:
		return "bad-value"
	case QuarantineRollingError:
		return "rolling-error"
	case QuarantineUnknownFirmware:
		return "unknown-firmware"
	default:
		return "unknown"
	}
}

// QuarantineEntry is one drive's quarantine ledger entry.
type QuarantineEntry struct {
	// SerialNumber identifies the quarantined drive.
	SerialNumber string
	// Day is the day of the record that triggered the quarantine.
	Day int
	// Reason classifies the trigger.
	Reason QuarantineReason
	// Err is the underlying error text.
	Err string
}

// SweepStats summarises one ObserveDay batch.
type SweepStats struct {
	// Records is how many input records the batch carried.
	Records int
	// Scored is how many feature rows were scored (mean-filled days
	// included).
	Scored int
	// Dropped counts records of gap-policy-excluded drives.
	Dropped int
	// Quarantined counts records that newly quarantined their drive
	// this batch.
	Quarantined int
	// Skipped counts records consumed while their drive was already
	// quarantined.
	Skipped int
	// Degraded is how many rows were scored by the fallback detector
	// because the scoring backend failed (0 on healthy days).
	Degraded int
}

// Assessment is the outcome of scoring one emitted drive-day row (or
// one consumed record of a dropped or quarantined drive).
type Assessment struct {
	SerialNumber string
	Day          int
	// Probability is the model's P(faulty); meaningless when Dropped
	// or Quarantined.
	Probability float64
	// Flagged reports Probability ≥ the model's threshold.
	Flagged bool
	// Interpolated marks rows synthesised by mean-fill.
	Interpolated bool
	// ConsecutiveFlags counts the current run of flagged rows.
	ConsecutiveFlags int
	// Alarmed reports the hysteresis criterion has latched.
	Alarmed bool
	// Dropped reports the drive was excluded by the gap policy (the
	// offline pipeline would not score it); no probability is attached.
	Dropped bool
	// Quarantined reports the record was rejected (or its drive was
	// already quarantined); no probability is attached. The scorer's
	// ledger carries the typed reason.
	Quarantined bool
	// Degraded reports the probability came from the fallback
	// SMART-threshold detector because the scoring backend failed.
	Degraded bool
}

// driveRoll is one drive's serving state: its vendor, the rolling
// feature state, its scoring run and the model generation the run was
// built for, alarm hysteresis, and its quarantine entry (Reason ==
// QuarantineNone while healthy).
type driveRoll struct {
	vendor      string
	roll        *features.RollingState
	run         ml.Run // nil until the drive's first scored row
	gen         uint32
	consecutive int
	alarmed     bool
	q           QuarantineEntry
}

// shard owns a disjoint subset of the fleet's drives plus the pooled
// per-day scratch its worker fills: the record indexes routed to it
// and, once validated, their drives' states, one record's feature rows
// and their metadata, and the day's assessments of its scored rows.
type shard struct {
	drives map[string]*driveRoll
	recIdx []int32      // input indexes of today's records, in input order
	rolls  []*driveRoll // rolls[k] is recIdx[k]'s drive after validation
	x      []float64
	meta   []features.EmittedRow
	out    []Assessment
	stats  SweepStats
}

// planKind classifies one input record's outcome.
type planKind int8

const (
	planRows    planKind = iota // emitted ≥1 scored feature rows
	planDropped                 // gap-policy-excluded drive
	planQuar                    // record newly quarantined its drive
	planSkip                    // drive was already quarantined
	planRouted                  // passed validation; the advance phase decides
)

// recPlan locates one input record's assessments inside its shard.
type recPlan struct {
	shard  int32
	rowOff int32 // assessments before this record's within the shard
	rows   int32 // emitted rows
	kind   planKind
}

// Scorer scores fleet telemetry day batches against a deployed model.
// Methods are safe for concurrent use, but days must be ingested in
// order, so callers typically drive it from one goroutine.
type Scorer struct {
	mu         sync.Mutex
	model      *core.Model
	ext        *features.Extractor
	policy     dataset.GapPolicy
	alarmAfter int
	workers    int
	registries map[string]*firmware.Registry
	strictFW   bool
	faults     FaultHooks
	fallback   ml.Classifier // degraded-mode detector; nil when the group lacks SMART
	degraded   bool          // last scored batch used the fallback
	// gen counts model swaps; a drive's run built under an older
	// generation is rebuilt on its next scored row.
	gen uint32

	seed   maphash.Seed
	shards []shard

	// Pooled per-call scratch.
	plans []recPlan
}

// New builds a scorer around a deployed model.
func New(model *core.Model, opts Options) (*Scorer, error) {
	if model == nil || model.Classifier == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if model.Config.Algorithm.Sequential() {
		return nil, fmt.Errorf("serve: sequence models (%s) are not supported; deploy a flat model", model.Config.Algorithm)
	}
	alarmAfter := opts.AlarmAfter
	if alarmAfter == 0 {
		alarmAfter = 2
	}
	if alarmAfter < 1 {
		return nil, fmt.Errorf("serve: AlarmAfter %d must be ≥ 1", alarmAfter)
	}
	nshards := opts.Shards
	if nshards == 0 {
		nshards = 32
	}
	if nshards < 1 {
		return nil, fmt.Errorf("serve: Shards %d must be ≥ 1", nshards)
	}
	policy := opts.GapPolicy
	if policy == (dataset.GapPolicy{}) {
		policy = model.Config.GapPolicy
	}
	if policy == (dataset.GapPolicy{}) {
		policy = dataset.DefaultGapPolicy()
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	ext, err := features.NewExtractor(model.Config.Group, opts.Registries)
	if err != nil {
		return nil, err
	}
	if model.Width != 0 && ext.Width() != model.Width {
		return nil, fmt.Errorf("serve: model width %d does not match group %s width %d",
			model.Width, model.Config.Group, ext.Width())
	}
	s := &Scorer{
		model:      model,
		ext:        ext,
		policy:     policy,
		alarmAfter: alarmAfter,
		workers:    opts.Workers,
		registries: opts.Registries,
		strictFW:   opts.StrictFirmware,
		faults:     opts.Faults,
		seed:       maphash.MakeSeed(),
		shards:     make([]shard, nshards),
	}
	if model.Config.Group.SMART {
		// Feature rows lead with the 16 SMART attributes, exactly the
		// view the vendor threshold detector expects.
		s.fallback = baselines.ThresholdDetector{}
	}
	prepareRuns(model.Classifier)
	for i := range s.shards {
		s.shards[i].drives = make(map[string]*driveRoll)
		// Non-nil from the start: a nil x tells Advance to skip
		// extraction, which ObserveDay never wants.
		s.shards[i].x = make([]float64, 0, ext.Width())
	}
	return s, nil
}

// prepareRuns builds what every run of clf shares — for the tree
// ensembles, the compiled arena and the differential kernel's
// threshold tables — when the model is installed. Built lazily, they
// would fall on the first scored row of the next served day, inside
// the fan-out, while the other shards wait.
func prepareRuns(clf ml.Classifier) { ml.NewRun(clf) }

// shardOf hashes a serial number to its shard. The seed is per-Scorer,
// so shard contents are an implementation detail; outputs never depend
// on the assignment.
func (s *Scorer) shardOf(sn string) int {
	return int(maphash.String(s.seed, sn) % uint64(len(s.shards)))
}

// rollFor returns (creating if needed) a shard's state for sn.
func (sh *shard) rollFor(sn, vendor string) *driveRoll {
	dr, ok := sh.drives[sn]
	if !ok {
		dr = &driveRoll{vendor: vendor, roll: features.NewRollingState()}
		sh.drives[sn] = dr
	}
	return dr
}

// quarantineReasonFor classifies a validation error: value-level
// corruption carries the dataset sentinels, everything else is a
// malformed record.
func quarantineReasonFor(err error) QuarantineReason {
	if errors.Is(err, dataset.ErrNonFinite) || errors.Is(err, dataset.ErrNegativeCounter) {
		return QuarantineBadValue
	}
	return QuarantineBadRecord
}

// advanceReason classifies a rolling-state error: an overflowed
// cumulate is value-level corruption, anything else a rolling-state
// failure.
func advanceReason(err error) QuarantineReason {
	if errors.Is(err, dataset.ErrNonFinite) {
		return QuarantineBadValue
	}
	return QuarantineRollingError
}

// reject validates one record and, under StrictFirmware, looks its
// firmware version up in the vendor's registry. It returns the
// quarantine entry a failure earns, or the zero entry for a record the
// advance phase may take.
func (s *Scorer) reject(rec *dataset.Record) QuarantineEntry {
	if err := rec.Validate(); err != nil {
		return QuarantineEntry{SerialNumber: rec.SerialNumber, Day: rec.Day,
			Reason: quarantineReasonFor(err), Err: err.Error()}
	}
	if s.strictFW {
		if reg, ok := s.registries[rec.Vendor]; ok {
			if _, known := reg.ByVersion(rec.Firmware); !known {
				return QuarantineEntry{SerialNumber: rec.SerialNumber, Day: rec.Day,
					Reason: QuarantineUnknownFirmware,
					Err:    fmt.Sprintf("serve: drive %s firmware %q not in vendor %s registry", rec.SerialNumber, rec.Firmware, rec.Vendor)}
			}
		}
	}
	return QuarantineEntry{}
}

// validateShard is one shard's validation phase. It walks the shard's
// records in input order: a record of a quarantined drive is skipped,
// a rejected record quarantines its drive, and every other record
// stays in recIdx, compacted, with its drive's state beside it in
// rolls and its plan marked planRouted. Every record leaves its drive
// with a slot, looked up once.
func (s *Scorer) validateShard(si int, recs []dataset.Record) {
	sh := &s.shards[si]
	sh.rolls = sh.rolls[:0]
	kept := sh.recIdx[:0]
	for _, ri := range sh.recIdx {
		rec := &recs[ri]
		dr, ok := sh.drives[rec.SerialNumber]
		if ok && dr.q.Reason != QuarantineNone {
			s.plans[ri] = recPlan{shard: int32(si), kind: planSkip}
			sh.stats.Skipped++
			continue
		}
		if !ok {
			dr = &driveRoll{vendor: rec.Vendor, roll: features.NewRollingState()}
			sh.drives[rec.SerialNumber] = dr
		}
		if q := s.reject(rec); q.Reason != QuarantineNone {
			dr.q = q
			s.plans[ri] = recPlan{shard: int32(si), kind: planQuar}
			sh.stats.Quarantined++
			continue
		}
		s.plans[ri] = recPlan{shard: int32(si), kind: planRouted}
		kept = append(kept, ri)
		sh.rolls = append(sh.rolls, dr)
	}
	sh.recIdx = kept
}

// finiteRows reports whether every value in rows is finite. NaN and
// ±Inf compare unequal to themselves under subtraction tricks, but the
// plain self-comparison plus range check is clearest.
func finiteRows(rows []float64) bool {
	for _, v := range rows {
		if v != v || v > maxFinite || v < -maxFinite {
			return false
		}
	}
	return true
}

const maxFinite = 1.7976931348623157e308 // math.MaxFloat64

// ObserveDay ingests one day of raw (daily-count) fleet telemetry and
// returns one assessment per emitted feature row — mean-filled days
// precede their record's own day — plus one entry per record whose
// drive was dropped by the gap policy, quarantined, or skipped because
// its drive was already quarantined. Results are in input-record order
// and identical at any Workers/Shards setting, and the per-batch
// SweepStats account for every input record.
//
// The batch does not need to share a literal calendar day; any set of
// records is accepted as long as each drive's records arrive in
// chronological order (within and across calls). A record that fails
// validation or extraction quarantines that drive only — the rest of
// the fleet scores bit-identically to a batch that never carried the
// bad record. Every record of a batch is validated before any is
// advanced, so a record that fails validation (or the StrictFirmware
// check) makes its drive skip all its other records of the batch, the
// earlier ones included; an error found while advancing skips only the
// later ones. The only error return is the injected transient observe
// fault, which fires before any state mutates, so a failed call is
// safe to retry with the same batch.
func (s *Scorer) ObserveDay(recs []dataset.Record) ([]Assessment, SweepStats, error) {
	var stats SweepStats
	if len(recs) == 0 {
		return nil, stats, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults.Observe != nil {
		if err := s.faults.Observe(); err != nil {
			return nil, stats, fmt.Errorf("serve: observe batch: %w", err)
		}
	}
	stats.Records = len(recs)

	// Serial routing: hash each record to its shard. Everything that
	// reads a record's telemetry runs inside the fan-outs below.
	for i := range s.shards {
		s.shards[i].recIdx = s.shards[i].recIdx[:0]
		s.shards[i].stats = SweepStats{}
	}
	if cap(s.plans) < len(recs) {
		s.plans = make([]recPlan, len(recs))
	}
	s.plans = s.plans[:len(recs)]
	for i := range recs {
		sh := &s.shards[s.shardOf(recs[i].SerialNumber)]
		sh.recIdx = append(sh.recIdx, int32(i))
	}

	// Validation phase: each shard skips the records of quarantined
	// drives, quarantines corrupt records, and keeps the rest routed
	// beside their drive's state. Each drive lives in exactly one shard
	// and its records are visited in input order, so every decision,
	// and the ledger, is the one a serial pass over the batch makes.
	_ = parallel.Do(len(s.shards), s.workers, func(si int) error {
		s.validateShard(si, recs)
		return nil
	})

	// Priming: register the routed records' firmware versions with the
	// encoders in input order. It is the only extractor mutation, so
	// extraction in the advance phase is read-only, and registry-unknown
	// versions get first-seen codes in arrival order at any worker or
	// shard count.
	routed := 0
	for i := range s.plans {
		if s.plans[i].kind == planRouted {
			s.ext.PrimeVersion(recs[i].Vendor, recs[i].Firmware)
			routed++
		}
	}

	// The day is degraded or healthy before any row is scored: a
	// scoring-backend failure swings it onto the SMART-threshold
	// detector instead of losing it, and the next healthy batch
	// recovers.
	dayDegraded := false
	if routed > 0 && s.faults.Score != nil {
		dayDegraded = s.faults.Score() != nil
	}

	// Advance phase: each shard advances its drives in input order,
	// scores each emitted row by resuming the drive's run (or through
	// the fallback on a degraded day, leaving runs untouched), and
	// applies the alarm hysteresis. A failing record quarantines its
	// drive and the shard moves on. A drive quarantined by a later
	// record of this batch in the validation phase has its earlier
	// routed records skipped here.
	width := s.ext.Width()
	clf, gen, threshold := s.model.Classifier, s.gen, s.model.Threshold
	_ = parallel.Do(len(s.shards), s.workers, func(si int) error {
		sh := &s.shards[si]
		sh.out = sh.out[:0]
		for j, ri := range sh.recIdx {
			rec, dr := &recs[ri], sh.rolls[j]
			if dr.q.Reason != QuarantineNone {
				// Quarantined by another record of this batch.
				s.plans[ri] = recPlan{shard: int32(si), kind: planSkip}
				sh.stats.Skipped++
				continue
			}
			x, meta, err := dr.roll.Advance(s.ext, s.policy, rec, sh.x[:0], sh.meta[:0])
			sh.x, sh.meta = x, meta
			if err != nil {
				dr.q = QuarantineEntry{SerialNumber: rec.SerialNumber, Day: rec.Day,
					Reason: advanceReason(err), Err: err.Error()}
				s.plans[ri] = recPlan{shard: int32(si), kind: planQuar}
				sh.stats.Quarantined++
				continue
			}
			if !finiteRows(x) {
				dr.q = QuarantineEntry{SerialNumber: rec.SerialNumber, Day: rec.Day,
					Reason: QuarantineBadValue,
					Err:    fmt.Sprintf("serve: drive %s day %d produced a non-finite feature", rec.SerialNumber, rec.Day)}
				s.plans[ri] = recPlan{shard: int32(si), kind: planQuar}
				sh.stats.Quarantined++
				continue
			}
			if len(meta) == 0 {
				s.plans[ri] = recPlan{shard: int32(si), kind: planDropped}
				sh.stats.Dropped++
				continue
			}
			s.plans[ri] = recPlan{shard: int32(si), rowOff: int32(len(sh.out)), rows: int32(len(meta)), kind: planRows}
			for k, m := range meta {
				row := x[k*width : (k+1)*width : (k+1)*width]
				var score float64
				switch {
				case !dayDegraded:
					if dr.run == nil || dr.gen != gen {
						dr.run, dr.gen = ml.NewRun(clf), gen
					}
					score = dr.run.Score(row)
				case s.fallback != nil:
					score = s.fallback.PredictProba(row)
				}
				flagged := score >= threshold
				if flagged {
					dr.consecutive++
				} else {
					dr.consecutive = 0
				}
				if dr.consecutive >= s.alarmAfter {
					dr.alarmed = true
				}
				sh.out = append(sh.out, Assessment{
					SerialNumber:     rec.SerialNumber,
					Day:              int(m.Day),
					Probability:      score,
					Flagged:          flagged,
					Interpolated:     m.Interpolated,
					ConsecutiveFlags: dr.consecutive,
					Alarmed:          dr.alarmed,
					Degraded:         dayDegraded,
				})
			}
		}
		return nil
	})
	for si := range s.shards {
		sh := &s.shards[si]
		stats.Quarantined += sh.stats.Quarantined
		stats.Skipped += sh.stats.Skipped
		stats.Dropped += sh.stats.Dropped
		stats.Scored += len(sh.out)
	}
	if stats.Scored > 0 {
		s.degraded = dayDegraded
		if dayDegraded {
			stats.Degraded = stats.Scored
		}
	}

	// Merge in input order: a record's scored rows come from its
	// shard, and every dropped, quarantined or skipped record gets one
	// entry of its own.
	out := make([]Assessment, 0, stats.Scored+stats.Dropped+stats.Quarantined+stats.Skipped)
	for i := range recs {
		p := &s.plans[i]
		switch p.kind {
		case planRows:
			out = append(out, s.shards[p.shard].out[p.rowOff:p.rowOff+p.rows]...)
		case planDropped:
			out = append(out, Assessment{SerialNumber: recs[i].SerialNumber, Day: recs[i].Day, Dropped: true})
		default:
			out = append(out, Assessment{SerialNumber: recs[i].SerialNumber, Day: recs[i].Day, Quarantined: true})
		}
	}
	return out, stats, nil
}

// ReplayStats summarises a ReplayFrame pass.
type ReplayStats struct {
	// Drives is the number of drives touched.
	Drives int
	// Records is the number of frame rows consumed.
	Records int
	// Rows is the number of feature rows the offline pipeline would
	// have produced for them (mean-filled days included).
	Rows int
	// Dropped is how many drives the gap policy excluded.
	Dropped int
	// Quarantined is how many drives a rolling-state error quarantined
	// mid-replay (their remaining rows are skipped).
	Quarantined int
}

// ReplayFrame bootstraps per-drive state from historical telemetry in
// one frame-native bulk pass: every drive's rows advance its
// RollingState without materialising records, extracting features, or
// scoring — catch-up only needs the cumulates, so it runs at memory
// speed. The frame must hold raw daily counts (running totals cannot
// be split back into the exact daily vectors a future mean-fill
// needs). Scoring then resumes with ObserveDay for subsequent days.
//
// A drive whose history fails to advance is quarantined (ledger reason
// rolling-error, or bad-value when a cumulate overflows) and its
// remaining rows skipped; the other drives replay unaffected.
func (s *Scorer) ReplayFrame(f *dataset.Frame) (ReplayStats, error) {
	if f.Cumulated() {
		return ReplayStats{}, fmt.Errorf("serve: ReplayFrame needs raw daily counts, got a cumulated frame")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Serial pre-pass: register firmware versions (drive-major, the
	// offline priming order) and route drives to shards.
	s.ext.PrimeFrame(f)
	lists := make([][]int32, len(s.shards))
	for di := 0; di < f.Drives(); di++ {
		si := s.shardOf(f.Drive(di).SerialNumber)
		lists[si] = append(lists[si], int32(di))
	}
	stats := parallel.Collect(len(s.shards), s.workers, func(si int) ReplayStats {
		var st ReplayStats
		sh := &s.shards[si]
		for _, di := range lists[si] {
			d := f.Drive(int(di))
			dr := sh.rollFor(d.SerialNumber, d.Vendor)
			if dr.q.Reason != QuarantineNone {
				continue
			}
			st.Drives++
			wasDropped := dr.roll.Dropped()
			rows0 := dr.roll.Rows()
			for r := int(d.Start); r < int(d.End); r++ {
				_, meta, err := dr.roll.AdvanceRow(s.ext, s.policy, d.SerialNumber, d.Vendor, int(f.Day(r)),
					f.SmartRow(r), f.FirmwareAt(r), f.WRow(r), f.BRow(r), nil, sh.meta[:0])
				sh.meta = meta[:0]
				if err != nil {
					dr.q = QuarantineEntry{SerialNumber: d.SerialNumber, Day: int(f.Day(r)),
						Reason: advanceReason(err), Err: err.Error()}
					st.Quarantined++
					break
				}
				st.Records++
			}
			st.Rows += dr.roll.Rows() - rows0
			if dr.roll.Dropped() && !wasDropped {
				st.Dropped++
			}
		}
		return st
	})
	var total ReplayStats
	for _, st := range stats {
		total.Drives += st.Drives
		total.Records += st.Records
		total.Rows += st.Rows
		total.Dropped += st.Dropped
		total.Quarantined += st.Quarantined
	}
	return total, nil
}

// UpdateModel swaps in a newly pushed model. The feature group must
// match so the accumulated per-drive state stays valid. A failed swap
// (including an injected one) leaves the current model serving.
func (s *Scorer) UpdateModel(model *core.Model) error {
	if model == nil || model.Classifier == nil {
		return fmt.Errorf("serve: nil model")
	}
	if model.Config.Algorithm.Sequential() {
		return fmt.Errorf("serve: sequence models are not supported")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults.Swap != nil {
		if err := s.faults.Swap(); err != nil {
			return fmt.Errorf("serve: model swap: %w", err)
		}
	}
	if model.Config.Group != s.model.Config.Group {
		return fmt.Errorf("serve: pushed model uses group %s, scorer runs %s",
			model.Config.Group, s.model.Config.Group)
	}
	ext, err := features.NewExtractor(model.Config.Group, s.registries)
	if err != nil {
		return err
	}
	prepareRuns(model.Classifier)
	s.model = model
	s.ext = ext
	// No per-drive work: each drive rebuilds its run on its next
	// scored row.
	s.gen++
	return nil
}

// Threshold returns the active model's decision threshold.
func (s *Scorer) Threshold() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model.Threshold
}

// Degraded reports whether the most recent scored batch fell back to
// the SMART-threshold detector. It clears by itself on the next
// healthy batch.
func (s *Scorer) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Drives lists the serial numbers observed so far, sorted.
func (s *Scorer) Drives() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for i := range s.shards {
		for sn := range s.shards[i].drives {
			out = append(out, sn)
		}
	}
	sort.Strings(out)
	return out
}

// Alarmed reports whether a drive's alarm has latched.
func (s *Scorer) Alarmed(sn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	return ok && dr.alarmed
}

// Dropped reports whether the gap policy has excluded a drive.
func (s *Scorer) Dropped(sn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	return ok && dr.roll.Dropped()
}

// Quarantined returns a drive's quarantine ledger entry, if any.
func (s *Scorer) Quarantined(sn string) (QuarantineEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	if !ok || dr.q.Reason == QuarantineNone {
		return QuarantineEntry{}, false
	}
	return dr.q, true
}

// QuarantineReasons returns the full quarantine ledger, sorted by
// serial number. The ledger is deterministic: the same telemetry feed
// produces the same entries at any worker or shard count.
func (s *Scorer) QuarantineReasons() []QuarantineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []QuarantineEntry
	for i := range s.shards {
		for _, dr := range s.shards[i].drives {
			if dr.q.Reason != QuarantineNone {
				out = append(out, dr.q)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SerialNumber < out[j].SerialNumber })
	return out
}

// ReviveDrive lifts a drive's quarantine and resets its state, so the
// next record starts a fresh series — the operator's path after
// re-imaging or replacing a corrupt collector. It reports whether the
// drive was quarantined.
func (s *Scorer) ReviveDrive(sn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[s.shardOf(sn)]
	dr, ok := sh.drives[sn]
	if !ok || dr.q.Reason == QuarantineNone {
		return false
	}
	sh.drives[sn] = &driveRoll{vendor: dr.vendor, roll: features.NewRollingState()}
	return true
}

// ResetDrive clears a drive's state (e.g. after replacement),
// quarantine entry included. It reports whether the drive was known.
func (s *Scorer) ResetDrive(sn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[s.shardOf(sn)]
	if _, ok := sh.drives[sn]; !ok {
		return false
	}
	delete(sh.drives, sn)
	return true
}

// Factor is one feature's contribution to a drive's score.
type Factor struct {
	Feature      string
	Contribution float64
}

// explainer is satisfied by models with faithful per-prediction
// attribution (forest.Model).
type explainer interface {
	Explain(x []float64) (contributions []float64, bias float64)
}

// Explain returns the three strongest positive feature contributions
// to the active model's score of a drive's last emitted row, strongest
// first. The row is rebuilt from the drive's rolling state, so Explain
// costs one extraction and one attribution walk and is meant for the
// few drives an operator asks about, such as alarmed ones. It returns
// nil when the drive is unknown, quarantined or has emitted no row, or
// when the model does not support attribution.
func (s *Scorer) Explain(sn string) []Factor {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, ok := s.model.Classifier.(explainer)
	if !ok {
		return nil
	}
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	if !ok || dr.q.Reason != QuarantineNone {
		return nil
	}
	x, ok := dr.roll.AppendLastRow(s.ext, dr.vendor, nil)
	if !ok {
		return nil
	}
	contrib, _ := exp.Explain(x)
	names := s.ext.Names()
	if len(contrib) != len(names) {
		return nil
	}
	var factors []Factor
	for i, c := range contrib {
		if c > 0 {
			factors = append(factors, Factor{Feature: names[i], Contribution: c})
		}
	}
	sort.SliceStable(factors, func(i, j int) bool { return factors[i].Contribution > factors[j].Contribution })
	if len(factors) > 3 {
		factors = factors[:3]
	}
	return factors
}

// LastDay returns the day of the last record a drive consumed, so a
// scorer restored from saved state can skip telemetry it has already
// seen. It reports false for an unknown drive, and -1 for one whose
// state restarted (a revived, or a restored quarantined, drive).
func (s *Scorer) LastDay(sn string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	if !ok {
		return 0, false
	}
	return dr.roll.LastDay(), true
}

// Window returns a drive's trailing-window diagnostics.
func (s *Scorer) Window(sn string) (features.WindowStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dr, ok := s.shards[s.shardOf(sn)].drives[sn]
	if !ok {
		return features.WindowStats{}, false
	}
	return dr.roll.Window(), true
}
