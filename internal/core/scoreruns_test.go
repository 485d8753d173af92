package core_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/firmware"
	"repro/internal/ml"
	"repro/internal/modelio"
	"repro/internal/sampling"
	"repro/internal/simfleet"
)

// trainVendor trains vendor's model on a simulated fleet and returns
// it with its held-out view and the time-series CV validation views of
// its training window, the two drive-ordered shapes ml.ScoreView scores
// while training.
func trainVendor(tb testing.TB, fleet *simfleet.FrameResult, vendor string, algo core.Algorithm) (*core.Model, []ml.View) {
	tb.Helper()
	regs := make(map[string]*firmware.Registry, len(fleet.Config.Vendors))
	for _, v := range fleet.Config.Vendors {
		regs[v.Name] = v.Firmware
	}
	cfg := core.DefaultConfig(vendor)
	cfg.Algorithm = algo
	cfg.Registries = regs
	m, rep, err := core.TrainOnFrame(fleet.Frame, fleet.Tickets, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	views := []ml.View{rep.Test}
	trainFull, _ := sampling.SplitFractionView(rep.Test.Set().All(), m.Config.TrainFrac)
	folds, err := sampling.TimeSeriesCVView(trainFull, m.Config.CVFolds)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range folds {
		views = append(views, f.Val)
	}
	return m, views
}

// TestScoreViewMatchesDirectOnFleet checks the differential kernel
// behind ml.ScoreView on real fleet rows: on the held-out view and
// every CV validation view, its scores equal ml.ScoreBatch in view
// order and the per-row PredictProba bit for bit, for RF, GBDT and a
// modelio round-tripped copy of each.
func TestScoreViewMatchesDirectOnFleet(t *testing.T) {
	scfg := simfleet.TinyConfig()
	scfg.FailureScale = 0.05
	fleet, err := simfleet.SimulateFrame(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []core.Algorithm{core.AlgoRF, core.AlgoGBDT} {
		m, views := trainVendor(t, fleet, "I", algo)
		data, err := modelio.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := modelio.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		for vi, v := range views {
			if v.Len() == 0 {
				t.Fatalf("%s: view %d is empty", algo, vi)
			}
			want := make([]float64, v.Len())
			ml.ScoreBatch(m.Classifier, v.Xs(), want, 1)
			for i := range want {
				if p := m.Classifier.PredictProba(v.Row(i)); math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Fatalf("%s view %d row %d: ScoreBatch %v, PredictProba %v", algo, vi, i, want[i], p)
				}
			}
			for name, clf := range map[string]ml.Classifier{"trained": m.Classifier, "restored": restored.Classifier} {
				for _, workers := range []int{1, 3} {
					got := make([]float64, v.Len())
					ml.ScoreView(clf, v, got, workers)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s view %d workers=%d row %d: ScoreView %v, ScoreBatch %v",
								algo, name, vi, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

var benchHeldOut struct {
	once  sync.Once
	model *core.Model
	rows  [][]float64
	err   error
}

// BenchmarkScoreHeldOutDriveOrder scores vendor I's held-out view of
// the default fleet at failure scale 0.1 (the retrain benchmark's
// fleet, seed 3), in arena order — drive then day, the order
// ml.ScoreView scores in — on one worker. "runs" is the differential
// kernel ScoreView uses, "direct" the kernel ScoreBatch uses on the
// same rows.
func BenchmarkScoreHeldOutDriveOrder(b *testing.B) {
	h := &benchHeldOut
	h.once.Do(func() {
		scfg := simfleet.DefaultConfig()
		scfg.FailureScale = 0.1
		scfg.Seed = 3
		fleet, err := simfleet.SimulateFrame(scfg)
		if err != nil {
			h.err = err
			return
		}
		m, views := trainVendor(b, fleet, "I", core.AlgoRF)
		sorted, _ := views[0].InArenaOrder()
		h.model, h.rows = m, sorted.Xs()
	})
	if h.err != nil {
		b.Fatal(h.err)
	}
	for _, kernel := range []struct {
		name  string
		score func(ml.Classifier, [][]float64, []float64, int)
	}{{"runs", ml.ScoreRuns}, {"direct", ml.ScoreBatch}} {
		b.Run(kernel.name, func(b *testing.B) {
			out := make([]float64, len(h.rows))
			kernel.score(h.model.Classifier, h.rows, out, 1) // build the compiled forms
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.score(h.model.Classifier, h.rows, out, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(h.rows)), "ns/row")
		})
	}
}
