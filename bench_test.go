package mfpa

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (see DESIGN.md's experiment index). Each
// benchmark runs its experiment end to end on a shared simulated fleet
// and reports the headline quantity the paper's artefact shows as a
// custom metric, so `go test -bench=. -benchmem` doubles as the
// reproduction run:
//
//	BenchmarkFig9FeatureGroups   ... tpr_sfwb=0.96 fpr_sfwb=0.008
//
// Benchmarks use a reduced fleet scale for tractable runtimes; the full
// report (EXPERIMENTS.md) comes from `mfpareport -scale 0.2`.

import (
	"sync"
	"testing"

	"repro/internal/experiments"
)

// benchScale keeps individual benchmarks in the seconds range.
const benchScale = 0.05

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(benchScale, 1)
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

func BenchmarkTableI(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.TableI()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DriveLevelShare, "drive_share")
		b.ReportMetric(res.SystemLevelShare, "system_share")
	}
}

func BenchmarkTableVI(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.TableVI()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].PaperRR, "vendorI_rr")
	}
}

func BenchmarkFig2Bathtub(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InfantShare(), "infant_share")
		b.ReportMetric(res.WearOutShare(), "wearout_share")
	}
}

func BenchmarkFig3Firmware(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MonotoneViolations()), "monotone_violations")
	}
}

func BenchmarkFig4CumulativeW(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalGapRatio(), "faulty_healthy_ratio")
	}
}

func BenchmarkFig5CumulativeB(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalGapRatio(), "faulty_healthy_ratio")
	}
}

func BenchmarkFig6Discontinuity(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.DropCandidates), "drop_candidates")
	}
}

func BenchmarkFig9FeatureGroups(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("SFWB"); ok {
			b.ReportMetric(row.TPR, "tpr_sfwb")
			b.ReportMetric(row.FPR, "fpr_sfwb")
		}
		if row, ok := res.Row("S"); ok {
			b.ReportMetric(row.TPR, "tpr_s")
			b.ReportMetric(row.FPR, "fpr_s")
		}
	}
}

func BenchmarkFig10Algorithms(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("RF"); ok {
			b.ReportMetric(row.TPR, "tpr_rf")
		}
		if row, ok := res.Row("CNN_LSTM"); ok {
			b.ReportMetric(row.TPR, "tpr_cnnlstm")
		}
	}
}

func BenchmarkFig11Vendors(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("I"); ok {
			b.ReportMetric(row.AUC, "auc_vendorI")
		}
		if row, ok := res.Row("IV"); ok {
			b.ReportMetric(row.AUC, "auc_vendorIV")
		}
	}
}

func BenchmarkFig12TimePeriods(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FPRRise(), "fpr_rise")
		b.ReportMetric(float64(len(res.Months)), "months")
	}
}

func BenchmarkFig17FeatureSelection(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig17()
		if err != nil {
			b.Fatal(err)
		}
		last := res.Steps[len(res.Steps)-1]
		b.ReportMetric(last.AUC, "final_auc")
		b.ReportMetric(float64(len(res.Selected)), "features")
	}
}

func BenchmarkFig18StateOfArt(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig18()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("MFPA (SFWB+RF)"); ok {
			b.ReportMetric(row.AUC, "auc_mfpa")
		}
		if row, ok := res.Row("SMART-threshold"); ok {
			b.ReportMetric(row.TPR, "tpr_threshold")
		}
	}
}

func BenchmarkFig19Lookahead(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig19()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TPRAt(5), "tpr_5d")
		b.ReportMetric(res.TPRAt(19), "tpr_19d")
	}
}

func BenchmarkFig20Overhead(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Fig20()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PredictionsPerSecond, "predictions/s")
	}
}

func BenchmarkAblationTheta(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationTheta()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("θ=7"); ok {
			b.ReportMetric(row.TPR-row.FPR, "youden_theta7")
		}
	}
}

func BenchmarkAblationGapPolicy(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationGapPolicy()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("drop≥10,fill≤3"); ok {
			b.ReportMetric(row.AUC, "auc_paper_policy")
		}
	}
}

func BenchmarkAblationSegmentation(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationSegmentation()
		if err != nil {
			b.Fatal(err)
		}
		tp, _ := res.Row("timepoint-based")
		rnd, _ := res.Row("random split")
		b.ReportMetric(rnd.AUC-tp.AUC, "leak_optimism")
	}
}

func BenchmarkAblationCrossValidation(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationCrossValidation()
		if err != nil {
			b.Fatal(err)
		}
		ts, _ := res.Row("time-series CV estimate")
		b.ReportMetric(ts.AUC, "tscv_auc")
	}
}

func BenchmarkAblationSampling(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationSampling()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("3:1"); ok {
			b.ReportMetric(row.TPR, "tpr_3to1")
		}
	}
}

func BenchmarkAblationCumulative(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationCumulative()
		if err != nil {
			b.Fatal(err)
		}
		cum, _ := res.Row("cumulative")
		daily, _ := res.Row("daily counts")
		b.ReportMetric(cum.AUC-daily.AUC, "cumulative_gain")
	}
}

func BenchmarkAblationPositiveWindow(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.AblationPositiveWindow()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.Row("7d"); ok {
			b.ReportMetric(row.TPR, "tpr_7d")
		}
	}
}

// BenchmarkPredictLatency measures the per-record scoring cost of the
// trained model — the paper's client-side microsecond-prediction claim.
func BenchmarkPredictLatency(b *testing.B) {
	c := benchContext(b)
	fleet := c.Fleet
	cfg := DefaultConfig("I")
	cfg.Registries = c.Registries
	model, report, err := Train(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		b.Fatal(err)
	}
	set := report.Test.Set()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(set.Row(i % set.Len()))
	}
}

func BenchmarkGridSearch(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.GridSearch()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestRF.Score, "best_rf_auc")
		b.ReportMetric(res.BestGBDT.Score, "best_gbdt_auc")
	}
}

func BenchmarkChannelDrop(b *testing.B) {
	c := benchContext(b)
	for i := 0; i < b.N; i++ {
		res, err := c.Channels()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].TPR, "tpr_all_channels")
		}
	}
}
