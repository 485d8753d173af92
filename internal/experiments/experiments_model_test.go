package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/features"
)

func TestFig10AllAlgorithmsRun(t *testing.T) {
	res, err := testCtx(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 algorithms", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.TPR) || math.IsNaN(row.FPR) {
			t.Errorf("%s produced NaN metrics", row.Name)
		}
		if row.AUC < 0.5 {
			t.Errorf("%s AUC = %g, worse than chance", row.Name, row.AUC)
		}
	}
	rf, ok := res.Row("RF")
	if !ok {
		t.Fatal("RF row missing")
	}
	// The paper's strongest algorithmic claim: the tree ensemble copes
	// with discontinuous data at least as well as the sequence model.
	cnn, ok := res.Row("CNN_LSTM")
	if !ok {
		t.Fatal("CNN_LSTM row missing")
	}
	if rf.TPR-rf.FPR < cnn.TPR-cnn.FPR-0.05 {
		t.Fatalf("RF (%.3f/%.3f) does not dominate CNN_LSTM (%.3f/%.3f)",
			rf.TPR, rf.FPR, cnn.TPR, cnn.FPR)
	}
	if !strings.Contains(res.String(), "RF") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig11VendorsRun(t *testing.T) {
	res, err := testCtx(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 vendors", len(res.Rows))
	}
	vI, ok := res.Row("I")
	if !ok {
		t.Fatal("vendor I missing")
	}
	if vI.AUC < 0.85 {
		t.Fatalf("vendor I AUC = %g", vI.AUC)
	}
	if res.Failures["I"] <= res.Failures["IV"] {
		t.Fatal("vendor I should have the most failures")
	}
}

func TestFig12WalkForward(t *testing.T) {
	res, err := testCtx(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Months) < 4 {
		t.Fatalf("months = %d, want ≥4", len(res.Months))
	}
	if res.DriftStartDay <= res.TrainEndDay {
		t.Fatalf("drift (day %d) should start after training ends (day %d)",
			res.DriftStartDay, res.TrainEndDay)
	}
	// The drift mechanism: the last month's FPR exceeds the first's.
	if res.FPRRise() <= 0 {
		t.Fatalf("FPR did not rise across months: %+v", res.Months)
	}
	// The iteration extension produced a comparable series.
	if len(res.IterMonths) == 0 {
		t.Fatal("monthly-iteration series missing")
	}
	if !strings.Contains(res.String(), "iterFPR") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig17SFSTrajectory(t *testing.T) {
	res, err := testCtx(t).Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no selection steps")
	}
	// AUC is non-decreasing along the greedy trajectory by construction.
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].AUC < res.Steps[i-1].AUC {
			t.Fatalf("AUC decreased at step %d", i)
		}
	}
	// The useless constant (Available Spare Threshold, S_4) must not be
	// among the first picks.
	for i, name := range res.Selected {
		if name == "S_4" && i < 3 {
			t.Fatalf("S_4 selected at position %d", i)
		}
	}
	if !strings.Contains(res.String(), "Added feature") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig18Baselines(t *testing.T) {
	res, err := testCtx(t).Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // MFPA + threshold + 4 learned baselines
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	mfpaRow, ok := res.Row("MFPA (SFWB+RF)")
	if !ok {
		t.Fatal("MFPA row missing")
	}
	thr, ok := res.Row("SMART-threshold")
	if !ok {
		t.Fatal("threshold row missing")
	}
	// The vendor threshold detector is the weak strawman of Section II
	// (3–10% TPR): MFPA must crush it.
	if thr.TPR >= mfpaRow.TPR {
		t.Fatalf("threshold TPR %g ≥ MFPA TPR %g", thr.TPR, mfpaRow.TPR)
	}
	if thr.FPR > 0.02 {
		t.Fatalf("threshold detector FPR %g should be tiny", thr.FPR)
	}
	// MFPA leads every baseline on Youden index.
	for _, row := range res.Rows {
		if row.Name == "MFPA (SFWB+RF)" {
			continue
		}
		if row.TPR-row.FPR > mfpaRow.TPR-mfpaRow.FPR {
			t.Errorf("baseline %s (%.3f/%.3f) beats MFPA (%.3f/%.3f)",
				row.Name, row.TPR, row.FPR, mfpaRow.TPR, mfpaRow.FPR)
		}
	}
}

func TestAblationThetaSweep(t *testing.T) {
	res, err := testCtx(t).AblationTheta()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	paper, ok := res.Row("θ=7")
	if !ok || paper.Note != "paper's choice" {
		t.Fatal("θ=7 row missing or unmarked")
	}
	if paper.TPR < 0.5 {
		t.Fatalf("θ=7 TPR = %g", paper.TPR)
	}
}

func TestAblationSegmentationShowsLeakOptimism(t *testing.T) {
	res, err := testCtx(t).AblationSegmentation()
	if err != nil {
		t.Fatal(err)
	}
	tp, ok1 := res.Row("timepoint-based")
	rnd, ok2 := res.Row("random split")
	if !ok1 || !ok2 {
		t.Fatal("rows missing")
	}
	// Training on shuffled (future-contaminated) data must not look
	// *worse* than the honest split by a wide margin — typically it
	// looks better, which is exactly the paper's warning.
	if rnd.AUC < tp.AUC-0.05 {
		t.Fatalf("random split AUC %g far below timepoint %g", rnd.AUC, tp.AUC)
	}
}

func TestAblationCrossValidationBias(t *testing.T) {
	res, err := testCtx(t).AblationCrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.AUC) || row.AUC < 0.5 {
			t.Errorf("%s AUC = %g", row.Setting, row.AUC)
		}
	}
}

func TestAblationSamplingAndCumulative(t *testing.T) {
	c := testCtx(t)
	sres, err := c.AblationSampling()
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != 4 {
		t.Fatalf("sampling rows = %d", len(sres.Rows))
	}
	cres, err := c.AblationCumulative()
	if err != nil {
		t.Fatal(err)
	}
	cum, _ := cres.Row("cumulative")
	if cum.TPR < 0.5 {
		t.Fatalf("cumulative TPR = %g", cum.TPR)
	}
	pres, err := c.AblationPositiveWindow()
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Rows) != 3 {
		t.Fatalf("positive-window rows = %d", len(pres.Rows))
	}
	if !strings.Contains(sres.String(), "paper's default") {
		t.Fatal("rendering incomplete")
	}
	if _, ok := sres.Row("nonexistent"); ok {
		t.Fatal("Row(nonexistent) succeeded")
	}
}

func TestContextCaches(t *testing.T) {
	c := testCtx(t)
	p1, err := c.Prepared("I", features.GroupSFWB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Prepared("I", features.GroupSFWB)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Prepared not cached")
	}
	s1, _, err := c.SampleSet("I", features.GroupSFWB)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, _ := c.SampleSet("I", features.GroupSFWB)
	if s1 != s2 {
		t.Fatal("SampleSet not cached")
	}
}

func TestGridSearch(t *testing.T) {
	res, err := testCtx(t).GridSearch()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RF) != 6 { // 3 depths × 2 feature settings
		t.Fatalf("RF candidates = %d, want 6", len(res.RF))
	}
	if len(res.GBDT) != 4 { // 2 rates × 2 depths
		t.Fatalf("GBDT candidates = %d, want 4", len(res.GBDT))
	}
	if res.BestRF.Score < 0.5 || res.BestGBDT.Score < 0.5 {
		t.Fatalf("best scores %g / %g are no better than chance", res.BestRF.Score, res.BestGBDT.Score)
	}
	if res.BestRF.Score != res.RF[0].Score {
		t.Fatal("best RF is not the top-sorted candidate")
	}
	if !strings.Contains(res.String(), "RF") {
		t.Fatal("rendering incomplete")
	}
}

func TestImportance(t *testing.T) {
	res, err := testCtx(t).Importance()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "Rank") {
		t.Fatal("rendering incomplete")
	}
	if res.Rank("not-a-feature") != -1 {
		t.Fatal("Rank of unknown feature should be -1")
	}
	if len(res.Names) != 45 {
		t.Fatalf("features ranked = %d, want 45", len(res.Names))
	}
	// The constant Available Spare Threshold (S_4) must be worthless.
	if res.Score("S_4") > 0.01 {
		t.Fatalf("S_4 importance = %g, should be ≈0", res.Score("S_4"))
	}
	// At least one W/B channel belongs in the top ten (Observation #3/#4).
	top := res.Names[:10]
	found := false
	for _, n := range top {
		if len(n) > 1 && (n[0] == 'W' || n[0] == 'B') {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no W/B feature in the top 10: %v", top)
	}
}

func TestFiguresRender(t *testing.T) {
	c := testCtx(t)
	var figurers []Figurer
	if r, err := c.Fig2(); err == nil {
		figurers = append(figurers, r)
	}
	if r, err := c.Fig3(); err == nil {
		figurers = append(figurers, r)
	}
	if r, err := c.Fig4(); err == nil {
		figurers = append(figurers, r)
	}
	if r, err := c.Fig19(); err == nil {
		figurers = append(figurers, r)
	}
	if len(figurers) < 4 {
		t.Fatalf("only %d figurers built", len(figurers))
	}
	seen := make(map[string]bool)
	for _, f := range figurers {
		files, err := f.Figures()
		if err != nil {
			t.Fatalf("%T: %v", f, err)
		}
		for name, data := range files {
			if seen[name] {
				t.Errorf("duplicate figure name %q", name)
			}
			seen[name] = true
			if len(data) < 500 || !strings.Contains(string(data), "<svg") {
				t.Errorf("figure %q looks wrong (%d bytes)", name, len(data))
			}
		}
	}
}

func TestChannels(t *testing.T) {
	res, err := testCtx(t).Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if !strings.Contains(res.String(), "drop B") {
		t.Fatal("rendering incomplete")
	}
}

func TestSeeds(t *testing.T) {
	res, err := testCtx(t).Seeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	for _, vendor := range res.Vendors {
		if len(res.TPRByVendor[vendor]) != 3 {
			t.Fatalf("vendor %s has %d TPRs", vendor, len(res.TPRByVendor[vendor]))
		}
	}
	if !strings.Contains(res.String(), "Range") {
		t.Fatal("rendering incomplete")
	}
}

func TestCostStudy(t *testing.T) {
	res, err := testCtx(t).CostStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The optimum can never cost more than the calibrated default.
		if row.CostPerDrive > row.DefaultCost+1e-9 {
			t.Fatalf("%s: optimal cost %g exceeds default %g",
				row.Regime, row.CostPerDrive, row.DefaultCost)
		}
	}
	// The miss-heavy regime flags at least as eagerly as the
	// alarm-averse one.
	if res.Rows[0].TPR < res.Rows[2].TPR-1e-9 {
		t.Fatalf("miss-heavy TPR %g below alarm-averse %g", res.Rows[0].TPR, res.Rows[2].TPR)
	}
	if !strings.Contains(res.String(), "Regime") {
		t.Fatal("rendering incomplete")
	}
}

// Rank returns the 0-based rank of a feature, or -1 when absent.
func (r *ImportanceResult) Rank(name string) int {
	for i, n := range r.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Score returns a feature's normalised importance (0 when absent).
func (r *ImportanceResult) Score(name string) float64 {
	if i := r.Rank(name); i >= 0 {
		return r.Scores[i]
	}
	return 0
}
