package serve

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/modelio"
)

// Models of the equivalence fixture's group, trained once per test
// binary on the fixture fleet: the fixture's own RF plus a GBDT and a
// Bayes model.
var (
	modelsOnce sync.Once
	gbdtModel  *core.Model
	bayesModel *core.Model
	modelsErr  error
)

func otherModels(t testing.TB) (gbdt, bayes *core.Model) {
	t.Helper()
	modelsOnce.Do(func() {
		for _, m := range []struct {
			algo core.Algorithm
			dst  **core.Model
		}{{core.AlgoGBDT, &gbdtModel}, {core.AlgoBayes, &bayesModel}} {
			cfg := core.DefaultConfig("I")
			cfg.Algorithm = m.algo
			cfg.Registries = cachedRegs
			if *m.dst, _, modelsErr = core.TrainOnFrame(cachedFrame, cachedFleet.Tickets, cfg); modelsErr != nil {
				return
			}
		}
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return gbdtModel, bayesModel
}

// freshCopy round-trips a model through modelio, so its compiled
// arena and run tables are built anew on first use, as after a deploy.
func freshCopy(t testing.TB, m *core.Model) *core.Model {
	t.Helper()
	b, err := modelio.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := modelio.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rowRecorder is a classifier that records every row it scores, in
// call order; it scores 0.
type rowRecorder struct{ rows [][]float64 }

func (r *rowRecorder) PredictProba(x []float64) float64 {
	r.rows = append(r.rows, append([]float64(nil), x...))
	return 0
}

// session is one scripted serving sequence: the day batches, which
// model serves from which day, the operator calls before given days,
// and the day whose scoring backend fails.
type session struct {
	batches  [][]dataset.Record
	models   map[int]*core.Model // day index → model swapped in (day 0: the boot model)
	revive   map[int]bool        // revive the first quarantined drive before this day
	reset    map[int]bool        // reset the first healthy drive before this day
	degraded int                 // the day index whose Score hook fails
}

// play runs the session with model(m) standing in for each scheduled
// model m, in schedule order, and returns each day's assessments.
func (ss *session) play(t *testing.T, opts Options, model func(*core.Model) *core.Model) [][]Assessment {
	t.Helper()
	calls := 0
	opts.Faults.Score = func() error {
		calls++
		if calls == ss.degraded+1 {
			return errors.New("injected backend fault")
		}
		return nil
	}
	opts.Registries = cachedRegs
	s, err := New(model(ss.models[0]), opts)
	if err != nil {
		t.Fatal(err)
	}
	days := make([][]Assessment, len(ss.batches))
	for d, batch := range ss.batches {
		if m, ok := ss.models[d]; ok && d > 0 {
			if err := s.UpdateModel(model(m)); err != nil {
				t.Fatal(err)
			}
		}
		if ss.revive[d] {
			if q := s.QuarantineReasons(); len(q) == 0 || !s.ReviveDrive(q[0].SerialNumber) {
				t.Fatalf("day %d: no quarantined drive to revive", d)
			}
		}
		if ss.reset[d] {
			reset := false
			for _, sn := range s.Drives() {
				if _, q := s.Quarantined(sn); !q {
					reset = s.ResetDrive(sn)
					break
				}
			}
			if !reset {
				t.Fatalf("day %d: no healthy drive to reset", d)
			}
		}
		if days[d], _, err = s.ObserveDay(batch); err != nil {
			t.Fatal(err)
		}
	}
	return days
}

// TestObserveDayMatchesDirectKernel pins per-drive resumed scoring to
// the direct batch kernel: through a corruption campaign, swaps to a
// different model of the same group and back (so every run goes stale
// and is rebuilt), a revived and a reset drive, a degraded day and its
// recovery, and mean-filled multi-row records, every probability is
// Float64bits-equal to ml.ScoreBatch on the same emitted rows, and the
// whole output is identical at every worker and shard count. The rows
// come from a reference run of the same session whose models record
// what they are asked to score.
func TestObserveDayMatchesDirectKernel(t *testing.T) {
	fleet, rf, _ := setup(t)
	gbdt, bayes := otherModels(t)
	batches, clog := corruptBatches(dayBatches(fleet, "I"), 5, 0.002)
	if len(clog) == 0 {
		t.Fatal("campaign injected nothing")
	}
	n := len(batches)
	for _, tc := range []struct {
		name   string
		models map[int]*core.Model
	}{
		{"RF-GBDT-RF", map[int]*core.Model{0: rf, n / 3: gbdt, 2 * n / 3: rf}},
		{"Bayes-RF", map[int]*core.Model{0: bayes, n / 2: rf}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := &session{batches: batches, models: tc.models,
				revive: map[int]bool{n / 2: true}, reset: map[int]bool{n/2 + 3: true}, degraded: n/3 + 1}

			// The reference: every model replaced by a recorder, one
			// worker and one shard, so rows are recorded in output order.
			// Recorders are made in swap order, one per scheduled model.
			var recorders []*rowRecorder
			ref := ss.play(t, Options{Workers: 1, Shards: 1}, func(m *core.Model) *core.Model {
				rec := &rowRecorder{}
				recorders = append(recorders, rec)
				c := *m
				c.Classifier = rec
				return &c
			})
			// Expected probabilities per day: the serving model's direct
			// batch scores over that day's recorded rows.
			var live *core.Model
			var rec *rowRecorder
			want := make([][]float64, n)
			interpolated, multi := 0, 0
			for d := range batches {
				if m, ok := tc.models[d]; ok {
					live, rec, recorders = m, recorders[0], recorders[1:]
				}
				rows := 0
				for i, a := range ref[d] {
					if a.Dropped || a.Quarantined {
						continue
					}
					rows++
					if a.Interpolated {
						interpolated++
					}
					if i > 0 && a.SerialNumber == ref[d][i-1].SerialNumber {
						multi++
					}
				}
				want[d] = make([]float64, rows)
				if d == ss.degraded {
					continue // scored by the fallback; nothing recorded
				}
				ml.ScoreBatch(live.Classifier, rec.rows[:rows], want[d], 1)
				rec.rows = rec.rows[rows:]
				if len(rec.rows) != 0 && tc.models[d+1] != nil {
					t.Fatalf("day %d: %d recorded rows left unmatched", d, len(rec.rows))
				}
			}
			degradedRows := func(d int) (k int) {
				for _, a := range ref[d] {
					if a.Degraded {
						k++
					}
				}
				return k
			}
			if degradedRows(ss.degraded) == 0 || degradedRows(ss.degraded+1) != 0 {
				t.Fatalf("day %d has %d degraded rows, the next day %d; want a degraded day and its recovery",
					ss.degraded, degradedRows(ss.degraded), degradedRows(ss.degraded+1))
			}
			if interpolated == 0 || multi == 0 {
				t.Fatalf("fixture served %d mean-filled rows, %d multi-row records; want both", interpolated, multi)
			}
			if len(rec.rows) != 0 {
				t.Fatalf("%d recorded rows left unmatched", len(rec.rows))
			}

			var first [][]Assessment
			for _, workers := range []int{1, 3} {
				for _, shards := range []int{1, 7, 32} {
					got := ss.play(t, Options{Workers: workers, Shards: shards}, func(m *core.Model) *core.Model { return m })
					for d := range got {
						if len(got[d]) != len(ref[d]) {
							t.Fatalf("workers=%d shards=%d day %d: %d assessments, reference has %d", workers, shards, d, len(got[d]), len(ref[d]))
						}
						k := 0
						for i, a := range got[d] {
							r := ref[d][i]
							if a.SerialNumber != r.SerialNumber || a.Day != r.Day || a.Dropped != r.Dropped ||
								a.Quarantined != r.Quarantined || a.Interpolated != r.Interpolated || a.Degraded != r.Degraded {
								t.Fatalf("workers=%d shards=%d day %d assessment %d: %+v, reference %+v", workers, shards, d, i, a, r)
							}
							if a.Dropped || a.Quarantined {
								continue
							}
							if d != ss.degraded && math.Float64bits(a.Probability) != math.Float64bits(want[d][k]) {
								t.Fatalf("workers=%d shards=%d day %d assessment %d (%s day %d): resumed %v, direct %v",
									workers, shards, d, i, a.SerialNumber, a.Day, a.Probability, want[d][k])
							}
							k++
						}
					}
					if first == nil {
						first = got
						continue
					}
					for d := range got {
						for i := range got[d] {
							a, b := got[d][i], first[d][i]
							if math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
								t.Fatalf("workers=%d shards=%d day %d assessment %d: %v, first run %v", workers, shards, d, i, a.Probability, b.Probability)
							}
							a.Probability, b.Probability = 0, 0
							if a != b {
								t.Fatalf("workers=%d shards=%d day %d assessment %d: %+v, first run %+v", workers, shards, d, i, a, b)
							}
						}
					}
				}
			}
		})
	}
}

// TestSwapRebuildsRunsConcurrently swaps in freshly loaded models —
// whose compiled arenas and run tables are built lazily on first use —
// between days served by 4 workers over 32 shards, so many shards
// rebuild their drives' runs from one new model at once. Run under
// -race; the output must equal a serial scorer's.
func TestSwapRebuildsRunsConcurrently(t *testing.T) {
	fleet, rf, regs := setup(t)
	gbdt, _ := otherModels(t)
	batches := dayBatches(fleet, "I")
	if len(batches) > 40 {
		batches = batches[:40]
	}
	serve := func(workers, shards int) []Assessment {
		s, err := New(freshCopy(t, rf), Options{Workers: workers, Shards: shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		var out []Assessment
		for d, batch := range batches {
			if d > 0 && d%10 == 0 {
				next := rf
				if d%20 == 10 {
					next = gbdt
				}
				if err := s.UpdateModel(freshCopy(t, next)); err != nil {
					t.Fatal(err)
				}
			}
			as, _, err := s.ObserveDay(batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, as...)
		}
		return out
	}
	want := serve(1, 1)
	got := serve(4, 32)
	if len(got) != len(want) {
		t.Fatalf("%d assessments, serial run has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Probability) != math.Float64bits(want[i].Probability) || got[i].SerialNumber != want[i].SerialNumber {
			t.Fatalf("assessment %d: %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkObserveDay serves the fixture fleet's days on a scorer that
// has already served the first half of them and reports the time per
// scored row. "steady" serves the second half, so every drive resumes
// its run from its previous day, and "steady-serial" does the same
// with one worker, so the two show the shard fan-out's speed-up;
// "swap" serves only the first day after a freshly loaded model is
// swapped in, when every drive's run is rebuilt and its first row
// walks every tree.
func BenchmarkObserveDay(b *testing.B) {
	fleet, model, regs := setup(b)
	batches := dayBatches(fleet, "I")
	warm := len(batches) / 2
	for _, bc := range []struct {
		name    string
		workers int
		swap    bool
		days    [][]dataset.Record
	}{
		{"steady", 0, false, batches[warm:]},
		{"steady-serial", 1, false, batches[warm:]},
		{"swap", 0, true, batches[warm : warm+1]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := New(model, Options{Workers: bc.workers, Registries: regs})
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches[:warm] {
					if _, _, err := s.ObserveDay(batch); err != nil {
						b.Fatal(err)
					}
				}
				if bc.swap {
					if err := s.UpdateModel(freshCopy(b, model)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, batch := range bc.days {
					_, st, err := s.ObserveDay(batch)
					if err != nil {
						b.Fatal(err)
					}
					rows += st.Scored
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
