package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bsod"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/modelio"
	"repro/internal/serve"
	"repro/internal/simfleet"
	"repro/internal/smartattr"
	"repro/internal/ticket"
	"repro/internal/winevent"
)

// serveFixture is the input of both serving workloads: the deployed
// vendor model, and a simulated fleet's telemetry for that vendor split
// into history, replayed to bootstrap a scorer, and a window of day
// batches carrying a seeded corruption campaign.
type serveFixture struct {
	regs       map[string]*firmware.Registry
	model      *core.Model
	modelBytes []byte
	tickets    *ticket.Store
	vendor     *dataset.Frame // the vendor's raw telemetry
	history    *dataset.Frame // the vendor's rows before firstDay
	window     [][]dataset.Record
	corrupted  []faultinject.Corruption
	firstDay   int
	drives     int
	records    int // records in the window
}

// serveVendor is the vendor the serving workloads score: the paper's
// primary vendor, with the most drives and failures.
const serveVendor = "I"

// modelSeed seeds the fleet the deployed model is trained on. The
// benchmark seed varies the served fleet but not the model: a forest's
// size, and so the cost of scoring a row, swings by a third between
// training fleets, which would hide any change to the serving path.
// The model's fleet is also smaller than the served one, because
// training, not serving, sets the process's peak memory.
const modelSeed = 1

func newServeFixture(sz *sizes) (*serveFixture, error) {
	model, err := trainModel(sz.model)
	if err != nil {
		return nil, err
	}
	mb, err := modelio.Marshal(model)
	if err != nil {
		return nil, err
	}
	res, err := simfleet.SimulateFrame(sz.served)
	if err != nil {
		return nil, err
	}
	regs := registries(res.Config)
	vendor := res.Frame.FilterVendor(serveVendor)
	firstDay := sz.served.Days - sz.window
	history, err := framePrefix(vendor, firstDay)
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{regs: regs, model: model, modelBytes: mb, tickets: res.Tickets,
		vendor: vendor, history: history, firstDay: firstDay, drives: vendor.Drives()}
	cor := faultinject.NewRecordCorruptor(faultinject.CorruptorConfig{Seed: sz.served.Seed, Rate: sz.corruptRate})
	for _, batch := range dayBatches(vendor, firstDay, sz.window) {
		dirty, log := cor.Corrupt(batch)
		fx.window = append(fx.window, dirty)
		fx.corrupted = append(fx.corrupted, log...)
		fx.records += len(dirty)
	}
	if len(fx.window) == 0 {
		return nil, fmt.Errorf("no telemetry in the serve window")
	}
	return fx, nil
}

func (fx *serveFixture) sizes() map[string]int {
	return map[string]int{
		"drives":          fx.drives,
		"history_records": fx.history.Len(),
		"window_days":     len(fx.window),
		"window_records":  fx.records,
		"corruptions":     len(fx.corrupted),
	}
}

// trainModel trains the serving vendor's model on a fleet simulated
// from cfg.
func trainModel(cfg simfleet.Config) (*core.Model, error) {
	res, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		return nil, err
	}
	mcfg := core.DefaultConfig(serveVendor)
	mcfg.Registries = registries(res.Config)
	model, _, err := core.TrainOnFrame(res.Frame, res.Tickets, mcfg)
	return model, err
}

// framePrefix copies the rows of f dated before day into a new frame.
func framePrefix(f *dataset.Frame, day int) (*dataset.Frame, error) {
	b := dataset.NewFrameBuilder()
	var smart smartattr.Values
	for di := 0; di < f.Drives(); di++ {
		d := f.Drive(di)
		for r := int(d.Start); r < int(d.End) && int(f.Day(r)) < day; r++ {
			copy(smart[:], f.SmartRow(r))
			if err := b.AppendRow(d.SerialNumber, d.Vendor, d.Model, int(f.Day(r)), f.FirmwareAt(r),
				&smart, f.WRow(r), f.BRow(r), f.Interpolated(r)); err != nil {
				return nil, err
			}
		}
	}
	return b.Finish(), nil
}

// dayBatches groups the rows of f dated in [from, from+days) into one
// record batch per day, drives in frame order within a day: the order a
// fleet's telemetry arrives in. Days without records are left out.
func dayBatches(f *dataset.Frame, from, days int) [][]dataset.Record {
	byDay := make([][]dataset.Record, days)
	for di := 0; di < f.Drives(); di++ {
		d := f.Drive(di)
		for r := int(d.Start); r < int(d.End); r++ {
			k := int(f.Day(r)) - from
			if k < 0 || k >= days {
				continue
			}
			rec := dataset.Record{SerialNumber: d.SerialNumber, Vendor: d.Vendor, Model: d.Model,
				Day: int(f.Day(r)), Firmware: f.FirmwareAt(r),
				WCounts: append(winevent.Counts(nil), f.WRow(r)...),
				BCounts: append(bsod.Counts(nil), f.BRow(r)...)}
			copy(rec.Smart[:], f.SmartRow(r))
			byDay[k] = append(byDay[k], rec)
		}
	}
	out := byDay[:0]
	for _, b := range byDay {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}

// bootScorer builds a scorer around model and replays the fixture's
// history into it.
func bootScorer(model *core.Model, fx *serveFixture) (*serve.Scorer, error) {
	sc, err := serve.New(model, serve.Options{Registries: fx.regs})
	if err != nil {
		return nil, err
	}
	if _, err := sc.ReplayFrame(fx.history); err != nil {
		return nil, err
	}
	return sc, nil
}

// observeDay calls ObserveDay inside a span.
func observeDay(tr *tracer, sc *serve.Scorer, batch []dataset.Record) ([]serve.Assessment, serve.SweepStats, error) {
	id := tr.begin("serve.observe")
	as, st, err := sc.ObserveDay(batch)
	tr.end(id)
	return as, st, err
}

// sweepCounts are the SweepStats counters, by metric name.
var sweepCounts = []string{"serve.records", "serve.scored", "serve.dropped", "serve.quarantined", "serve.skipped", "serve.degraded"}

func countSweep(m *meter, st serve.SweepStats) {
	for i, v := range []int{st.Records, st.Scored, st.Dropped, st.Quarantined, st.Skipped, st.Degraded} {
		m.count(sweepCounts[i], float64(v))
	}
}

// sweepMetrics reports the SweepStats counters per ObserveDay call and
// the share of records that produced scored rows (mean-filled rows make
// Scored exceed Records, so the share counts records, not rows).
func sweepMetrics(m *meter) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range sweepCounts {
		out[name] = m.perOp(name)
	}
	if recs := m.counts["serve.records"]; recs > 0 {
		wasted := m.counts["serve.dropped"] + m.counts["serve.quarantined"] + m.counts["serve.skipped"]
		out["serve.useful_ratio"] = 1 - wasted/recs
	}
	return out
}

// serveSteady serves the window day by day. One operation is one
// ObserveDay call; a pass bootstraps a fresh scorer off the clock and
// serves the whole window, swapping in a reloaded copy of the model
// after swapAfter days.
type serveSteady struct {
	fx        *serveFixture
	swapAfter int
	// ref is the gate's reference, built on the first run.
	ref *offlineRef
}

func setupSteady(sz *sizes, _ *options) (instance, error) {
	fx, err := newServeFixture(sz)
	if err != nil {
		return nil, err
	}
	return &serveSteady{fx: fx, swapAfter: sz.swapAfter}, nil
}

func (s *serveSteady) sizes() map[string]int { return s.fx.sizes() }

func (s *serveSteady) summary() string {
	if s.ref == nil {
		return ""
	}
	return fmt.Sprintf("corruptions=%d touched_drives=%d offline_rows_checked=%d", len(s.fx.corrupted), len(s.ref.kinds), s.ref.want)
}

func (s *serveSteady) run(m *meter, deadline time.Time) error {
	if s.ref == nil {
		ref, err := newOfflineRef(s.fx)
		if err != nil {
			return err
		}
		s.ref = ref
		// Only the reference needed the whole telemetry; dropping it
		// keeps the serving fleet's arena out of the measured heap.
		s.fx.vendor, s.fx.tickets = nil, nil
	}
	for {
		if err := s.pass(m); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func (s *serveSteady) pass(m *meter) error {
	fx := s.fx
	sc, err := bootScorer(fx.model, fx)
	if err != nil {
		return err
	}
	var mir *mirror
	if m.tr != nil {
		if mir, err = newMirror(fx); err != nil {
			return err
		}
	}
	check := s.ref.newCheck()
	runtime.GC()
	for d, batch := range fx.window {
		if d == s.swapAfter {
			if err := s.swap(m, sc); err != nil {
				return err
			}
		}
		var as []serve.Assessment
		var st serve.SweepStats
		err := m.op(func() (int, error) {
			var err error
			as, st, err = observeDay(m.tr, sc, batch)
			return st.Scored, err
		})
		if err != nil {
			return err
		}
		countSweep(m, st)
		if d == s.swapAfter {
			m.count("swap.first_day_ns", float64(m.samples[len(m.samples)-1]))
			m.count("swap.passes", 1)
		}
		if err := check.day(as); err != nil {
			return err
		}
		if mir != nil {
			mir.day(m, batch)
		}
	}
	return check.finish(sc.QuarantineReasons())
}

// swap reloads the model from its marshalled bytes and pushes it into
// the scorer, as a deploy after a retrain does.
func (s *serveSteady) swap(m *meter, sc *serve.Scorer) error {
	model, err := call(m.tr, "modelio.unmarshal", func() (*core.Model, error) { return modelio.Unmarshal(s.fx.modelBytes) })
	if err != nil {
		return err
	}
	id := m.tr.begin("serve.swap")
	err = sc.UpdateModel(model)
	m.tr.end(id)
	return err
}

func (s *serveSteady) layerMetrics(m *meter, self selfNs) map[string]float64 {
	out := sweepMetrics(m)
	if n := m.counts["swap.passes"]; n > 0 {
		out["serve.first_day_after_swap_ms"] = m.counts["swap.first_day_ns"] / n / 1e6
		out["serve.swap_ms"] = float64(self.beside["serve.swap"]) / n / 1e6
		out["modelio.unmarshal_ms"] = float64(self.beside["modelio.unmarshal"]) / n / 1e6
	}
	per := func(span, count string) float64 {
		if n := m.counts[count]; n > 0 {
			return float64(self.beside[span]) / n
		}
		return 0
	}
	out["dataset.validate_ns_per_record"] = per("dataset.validate", "mirror.records")
	out["features.advance_ns_per_record"] = per("features.advance", "mirror.advanced")
	out["ml.score_ns_per_row"] = per("ml.score", "mirror.rows")
	if obs := self.inside["serve.observe"]; obs > 0 {
		mirrored := self.beside["dataset.validate"] + self.beside["features.advance"] + self.beside["ml.score"]
		out["serve.overhead_share"] = 1 - float64(mirrored)/float64(obs)
	}
	return out
}

// driveDay keys one scored drive-day.
type driveDay struct {
	sn  string
	day int
}

// offlineRef is the serve_steady gate's reference.
type offlineRef struct {
	// scores are the offline pipeline's, from DropGap days before the
	// window on: a mean-filled row precedes its record by less than
	// DropGap days.
	scores map[driveDay]float64
	// kinds are the corruptions injected into each touched drive.
	kinds    map[string][]faultinject.CorruptKind
	firstDay int
	// want counts the offline rows of untouched drives dated firstDay
	// or later: every one must be served.
	want int
}

// newOfflineRef runs the offline pipeline over the vendor's whole
// telemetry: clean, cumulate, extract every surviving drive-day, batch
// score.
func newOfflineRef(fx *serveFixture) (*offlineRef, error) {
	cfg := fx.model.Config
	cfg.Registries = fx.regs
	p, err := core.PrepareFrame(fx.vendor, fx.tickets, cfg)
	if err != nil {
		return nil, err
	}
	ext, err := features.NewExtractor(cfg.Group, fx.regs)
	if err != nil {
		return nil, err
	}
	set, err := features.BuildSampleSetFrame(p.Frame, labeling.Labels{}, ext, features.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	scores := ml.BatchScoresView(fx.model.Classifier, set.All(), 0)
	from := fx.firstDay - cfg.GapPolicy.DropGap
	kept := make(map[driveDay]float64)
	for i := 0; i < set.Len(); i++ {
		if day := set.Day(i); day >= from {
			kept[driveDay{set.SN(i), day}] = scores[i]
		}
	}
	return makeRef(kept, fx.corrupted, fx.firstDay), nil
}

// makeRef builds the gate's reference from offline scores and the
// corruption campaign's log.
func makeRef(scores map[driveDay]float64, corrupted []faultinject.Corruption, firstDay int) *offlineRef {
	ref := &offlineRef{scores: scores, kinds: make(map[string][]faultinject.CorruptKind), firstDay: firstDay}
	for _, c := range corrupted {
		ref.kinds[c.SerialNumber] = append(ref.kinds[c.SerialNumber], c.Kind)
	}
	for k := range scores {
		if k.day >= firstDay && ref.kinds[k.sn] == nil {
			ref.want++
		}
	}
	return ref
}

// steadyCheck is the serve_steady gate over one pass, fed day by day.
// Drives the corruptor never touched score Float64bits-equal to the
// offline pipeline, on exactly the drive-days it scores. Touched drives
// are quarantined with a reason one of their corruptions causes; only
// an out-of-order day may slip through, when the rewound day still
// follows the drive's previous record.
type steadyCheck struct {
	ref     *offlineRef
	matched int
	// unmatched are drives with rows served online but absent offline;
	// each must be dropped by the gap policy by the end of the pass.
	unmatched map[string]bool
	dropped   map[string]bool
}

func (r *offlineRef) newCheck() *steadyCheck {
	return &steadyCheck{ref: r, unmatched: make(map[string]bool), dropped: make(map[string]bool)}
}

// day checks one ObserveDay call's assessments.
func (c *steadyCheck) day(as []serve.Assessment) error {
	for i := range as {
		a := &as[i]
		if a.Dropped {
			c.dropped[a.SerialNumber] = true
		}
		if a.Dropped || a.Quarantined || c.ref.kinds[a.SerialNumber] != nil {
			continue
		}
		want, ok := c.ref.scores[driveDay{a.SerialNumber, a.Day}]
		if !ok {
			c.unmatched[a.SerialNumber] = true
			continue
		}
		if math.Float64bits(a.Probability) != math.Float64bits(want) {
			return fmt.Errorf("gate serve_steady/offline-score: drive %s day %d: online %v, offline %v", a.SerialNumber, a.Day, a.Probability, want)
		}
		if a.Day >= c.ref.firstDay {
			c.matched++
		}
	}
	return nil
}

// finish checks the pass as a whole against the scorer's quarantine
// ledger.
func (c *steadyCheck) finish(ledger []serve.QuarantineEntry) error {
	// The offline clean drops an over-gapped drive's whole series;
	// online the drive scores until the gap.
	for sn := range c.unmatched {
		if !c.dropped[sn] {
			return fmt.Errorf("gate serve_steady/offline-score: drive %s scored online on a day absent offline, and never dropped", sn)
		}
	}
	if c.matched != c.ref.want {
		return fmt.Errorf("gate serve_steady/offline-score: %d of %d offline drive-days served", c.matched, c.ref.want)
	}
	quarantined := make(map[string]serve.QuarantineReason, len(ledger))
	for _, e := range ledger {
		if c.ref.kinds[e.SerialNumber] == nil {
			return fmt.Errorf("gate serve_steady/untouched-quarantined: drive %s quarantined as %s but never corrupted", e.SerialNumber, e.Reason)
		}
		quarantined[e.SerialNumber] = e.Reason
	}
	for sn, ks := range c.ref.kinds {
		reason, ok := quarantined[sn]
		must, matches := false, false
		for _, k := range ks {
			must = must || k != faultinject.KindOutOfOrderDay
			matches = matches || reasonFor(k) == reason
		}
		if !ok && must {
			return fmt.Errorf("gate serve_steady/touched-not-quarantined: drive %s corrupted %v but not quarantined", sn, ks)
		}
		if ok && !matches {
			return fmt.Errorf("gate serve_steady/quarantine-reason: drive %s quarantined as %s after %v", sn, reason, ks)
		}
	}
	return nil
}

// reasonFor is the quarantine reason each corruption kind must cause.
func reasonFor(k faultinject.CorruptKind) serve.QuarantineReason {
	switch k {
	case faultinject.KindDuplicateDay, faultinject.KindOutOfOrderDay:
		return serve.QuarantineRollingError
	default:
		return serve.QuarantineBadValue
	}
}

// mirror repeats the per-record steps of ObserveDay through the layers'
// public functions on state the harness owns, so a traced run can split
// a served day into validation, rolling extraction and batch scoring.
// The remainder of ObserveDay is the scorer's own overhead.
type mirror struct {
	model  *core.Model
	ext    *features.Extractor
	policy dataset.GapPolicy
	// states holds each drive's rolling state; nil marks a drive the
	// mirror stopped tracking after a rejected record.
	states map[string]*features.RollingState
	valid  []bool
	x      []float64
	meta   []features.EmittedRow
	xs     [][]float64
	scores []float64
}

// newMirror bootstraps rolling states from the fixture's history, as
// ReplayFrame does for the scorer.
func newMirror(fx *serveFixture) (*mirror, error) {
	ext, err := features.NewExtractor(fx.model.Config.Group, fx.regs)
	if err != nil {
		return nil, err
	}
	ext.PrimeFrame(fx.history)
	mr := &mirror{model: fx.model, ext: ext, policy: fx.model.Config.GapPolicy,
		states: make(map[string]*features.RollingState), x: make([]float64, 0, ext.Width())}
	h := fx.history
	for di := 0; di < h.Drives(); di++ {
		d := h.Drive(di)
		st := features.NewRollingState()
		for r := int(d.Start); r < int(d.End); r++ {
			_, meta, err := st.AdvanceRow(ext, mr.policy, d.SerialNumber, d.Vendor, int(h.Day(r)),
				h.SmartRow(r), h.FirmwareAt(r), h.WRow(r), h.BRow(r), nil, mr.meta[:0])
			if err != nil {
				return nil, fmt.Errorf("mirror bootstrap: %w", err)
			}
			mr.meta = meta[:0]
		}
		mr.states[d.SerialNumber] = st
	}
	return mr, nil
}

// day mirrors one ObserveDay batch and counts the records and rows each
// step handled.
func (mr *mirror) day(m *meter, batch []dataset.Record) {
	tr := m.tr
	id := tr.begin("dataset.validate")
	mr.valid = mr.valid[:0]
	for i := range batch {
		mr.valid = append(mr.valid, batch[i].Validate() == nil)
	}
	tr.end(id)

	id = tr.begin("features.advance")
	width := mr.ext.Width()
	mr.x, mr.meta = mr.x[:0], mr.meta[:0]
	advanced := 0
	for i := range batch {
		rec := &batch[i]
		st, seen := mr.states[rec.SerialNumber]
		if seen && st == nil {
			continue
		}
		if !mr.valid[i] {
			mr.states[rec.SerialNumber] = nil
			continue
		}
		if st == nil {
			st = features.NewRollingState()
			mr.states[rec.SerialNumber] = st
		}
		mr.ext.PrimeVersion(rec.Vendor, rec.Firmware)
		advanced++
		before := len(mr.meta)
		x, meta, err := st.Advance(mr.ext, mr.policy, rec, mr.x, mr.meta)
		mr.x, mr.meta = x, meta
		if err != nil {
			mr.x, mr.meta = mr.x[:before*width], mr.meta[:before]
			mr.states[rec.SerialNumber] = nil
		}
	}
	tr.end(id)

	id = tr.begin("ml.score")
	n := len(mr.meta)
	mr.xs = mr.xs[:0]
	for r := 0; r < n; r++ {
		mr.xs = append(mr.xs, mr.x[r*width:(r+1)*width:(r+1)*width])
	}
	if cap(mr.scores) < n {
		mr.scores = make([]float64, n)
	}
	mr.scores = mr.scores[:n]
	ml.ScoreBatch(mr.model.Classifier, mr.xs, mr.scores, 0)
	tr.end(id)

	m.count("mirror.records", float64(len(batch)))
	m.count("mirror.advanced", float64(advanced))
	m.count("mirror.rows", float64(n))
}

// serveRestart is crash recovery: one operation reads the history file,
// loads the model file, builds a scorer, replays the history and serves
// the first window day.
type serveRestart struct {
	fx        *serveFixture
	histPath  string
	modelPath string
	histBytes int64
	// want is serve_steady's first served day, the gate's reference;
	// built on the first run.
	want []serve.Assessment
}

func setupRestart(sz *sizes, o *options) (instance, error) {
	fx, err := newServeFixture(sz)
	if err != nil {
		return nil, err
	}
	r := &serveRestart{fx: fx,
		histPath:  filepath.Join(o.workDir, "restart-history.mfpac"),
		modelPath: filepath.Join(o.workDir, "restart-model.json")}
	if r.histBytes, err = writeFrame(r.histPath, fx.history); err != nil {
		return nil, err
	}
	if err := modelio.SaveFile(r.modelPath, fx.model); err != nil {
		return nil, err
	}
	// A restart serves only the first window day from memory.
	fx.vendor, fx.tickets, fx.window = nil, nil, fx.window[:1]
	return r, nil
}

func (r *serveRestart) sizes() map[string]int {
	return map[string]int{
		"drives":            r.fx.drives,
		"history_records":   r.fx.history.Len(),
		"history_bytes":     int(r.histBytes),
		"first_day_records": len(r.fx.window[0]),
	}
}

func (r *serveRestart) summary() string {
	return fmt.Sprintf("first_day_assessments=%d", len(r.want))
}

func (r *serveRestart) run(m *meter, deadline time.Time) error {
	if r.want == nil {
		sc, err := bootScorer(r.fx.model, r.fx)
		if err != nil {
			return err
		}
		if r.want, _, err = sc.ObserveDay(r.fx.window[0]); err != nil {
			return err
		}
	}
	for {
		var got []serve.Assessment
		var st serve.SweepStats
		var rs serve.ReplayStats
		err := m.op(func() (int, error) {
			f, err := call(m.tr, "dataset.read", func() (*dataset.Frame, error) { return readFrame(r.histPath) })
			if err != nil {
				return 0, err
			}
			model, err := call(m.tr, "modelio.load", func() (*core.Model, error) { return modelio.LoadFile(r.modelPath) })
			if err != nil {
				return 0, err
			}
			sc, err := call(m.tr, "serve.new", func() (*serve.Scorer, error) {
				return serve.New(model, serve.Options{Registries: r.fx.regs})
			})
			if err != nil {
				return 0, err
			}
			if rs, err = call(m.tr, "serve.replay", func() (serve.ReplayStats, error) { return sc.ReplayFrame(f) }); err != nil {
				return 0, err
			}
			got, st, err = observeDay(m.tr, sc, r.fx.window[0])
			return rs.Records + st.Records, err
		})
		if err != nil {
			return err
		}
		countSweep(m, st)
		m.count("restart.replayed", float64(rs.Records))
		if err := sameAssessments(r.want, got); err != nil {
			return fmt.Errorf("gate serve_restart/first-day: %w", err)
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

func (r *serveRestart) layerMetrics(m *meter, self selfNs) map[string]float64 {
	out := sweepMetrics(m)
	if ns := self.inside["dataset.read"]; ns > 0 {
		out["dataset.read_mb_per_s"] = float64(r.histBytes) * float64(len(m.samples)) / 1e6 / (float64(ns) / 1e9)
	}
	if ns := self.inside["serve.replay"]; ns > 0 {
		out["serve.replay_records_per_s"] = m.counts["restart.replayed"] / (float64(ns) / 1e9)
	}
	return out
}

// sameAssessments requires two assessment lists to be identical, with
// probabilities compared bit for bit.
func sameAssessments(want, got []serve.Assessment) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d assessments, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		pa, pb := math.Float64bits(a.Probability), math.Float64bits(b.Probability)
		a.Probability, b.Probability = 0, 0
		if a != b || pa != pb {
			return fmt.Errorf("assessment %d: got %+v (p=%v), want %+v (p=%v)",
				i, a, math.Float64frombits(pa), b, math.Float64frombits(pb))
		}
	}
	return nil
}
