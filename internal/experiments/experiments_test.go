package experiments

import (
	"strings"
	"testing"

	"repro/internal/simfleet"
)

// testCtx builds one small shared context per test binary.
var cached *Context

func testCtx(t *testing.T) *Context {
	t.Helper()
	if cached == nil {
		cfg := simfleet.DefaultConfig()
		cfg.FailureScale = 0.04
		cfg.Days = 150
		c, err := NewContextWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cached = c
	}
	return cached
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artefact must be covered.
	want := []string{
		"table1", "table2", "table5", "table6",
		"fig2", "fig3", "fig4", "fig5", "fig6",
		"fig9", "fig10", "fig11", "fig12",
		"fig17", "fig18", "fig19", "fig20",
		"theta", "gaps", "segmentation", "crossval", "ratio", "cumulative", "poswindow",
		"gridsearch", "importance", "channels", "seeds", "costs",
	}
	set := make(map[string]bool)
	for _, r := range Registry() {
		set[r.Name] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("experiment %q missing from registry", w)
		}
	}
	for _, r := range Registry() {
		if r.Description == "" || r.Run == nil {
			t.Errorf("runner %q incomplete", r.Name)
		}
	}
	if _, ok := Lookup("fig9"); !ok {
		t.Error("Lookup(fig9) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestTableI(t *testing.T) {
	res, err := testCtx(t).TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	total := res.DriveLevelShare + res.SystemLevelShare
	if total < 0.999 || total > 1.001 {
		t.Fatalf("level shares sum to %g", total)
	}
	// With enough tickets the observed split lands near 32/68.
	if res.Tickets > 300 && (res.DriveLevelShare < 0.2 || res.DriveLevelShare > 0.45) {
		t.Fatalf("drive-level share = %g, want ≈0.32", res.DriveLevelShare)
	}
	if !strings.Contains(res.String(), "Drive level total") {
		t.Fatal("rendering incomplete")
	}
}

func TestTableII(t *testing.T) {
	res, err := testCtx(t).TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attributes) != 16 {
		t.Fatalf("attributes = %d", len(res.Attributes))
	}
}

func TestTableV(t *testing.T) {
	res, err := testCtx(t).TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Table V: SFWB = 16 SMART + 1 F + 5 W + 23 B.
	top := res.Rows[0]
	if top.SMART != 16 || top.Firmware != 1 || top.WEvents != 5 || top.BSOD != 23 {
		t.Fatalf("SFWB row = %+v", top)
	}
	if !strings.Contains(res.String(), "NaN") {
		t.Fatal("absent families should render as NaN like the paper")
	}
}

func TestTableVI(t *testing.T) {
	res, err := testCtx(t).TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("vendors = %d", len(res.Rows))
	}
	if res.Rows[0].Vendor != "I" || res.Rows[0].Population != 270325 {
		t.Fatalf("vendor I row = %+v", res.Rows[0])
	}
	if res.Rows[0].PaperRR < 0.0067 || res.Rows[0].PaperRR > 0.0069 {
		t.Fatalf("vendor I RR = %g", res.Rows[0].PaperRR)
	}
}

func TestFig2Bathtub(t *testing.T) {
	res, err := testCtx(t).Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no failures")
	}
	if res.InfantShare() <= 0.1 {
		t.Fatalf("infant share = %g; bathtub needs an infant spike", res.InfantShare())
	}
	if res.WearOutShare() <= 0.1 {
		t.Fatalf("wear-out share = %g", res.WearOutShare())
	}
}

func TestFig3FirmwareMonotone(t *testing.T) {
	res, err := testCtx(t).Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 5+3+2+2 releases
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	// Small fleets are noisy; allow at most a few inversions.
	if v := res.MonotoneViolations(); v > 4 {
		t.Fatalf("%d monotonicity violations", v)
	}
	if !strings.Contains(res.String(), "I_F_1") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig4And5Separation(t *testing.T) {
	c := testCtx(t)
	for name, run := range map[string]func() (*Fig45Result, error){
		"fig4": c.Fig4,
		"fig5": c.Fig5,
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Faulty) == 0 || len(res.Healthy) == 0 {
			t.Fatalf("%s: missing series", name)
		}
		if ratio := res.FinalGapRatio(); ratio < 2 {
			t.Fatalf("%s: faulty/healthy cumulative ratio = %g, want clear separation", name, ratio)
		}
		// Cumulative trajectories never decrease.
		for _, cs := range append(res.Faulty, res.Healthy...) {
			for i := 1; i < len(cs.Values); i++ {
				if cs.Values[i] < cs.Values[i-1] {
					t.Fatalf("%s: cumulative series decreases", name)
				}
			}
		}
	}
}

func TestFig6Discontinuity(t *testing.T) {
	res, err := testCtx(t).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for g := 2; g < len(res.GapHistogram); g++ {
		multi += res.GapHistogram[g]
	}
	if multi == 0 {
		t.Fatal("no multi-day gaps; CSS telemetry must be discontinuous")
	}
	if res.DropCandidates == 0 {
		t.Fatal("no drives qualify for the ≥10-day drop rule")
	}
	if !strings.Contains(res.String(), "drives dropped") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig9ShapeSFWBBeatsS(t *testing.T) {
	res, err := testCtx(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sfwb, ok1 := res.Row("SFWB")
	s, ok2 := res.Row("S")
	if !ok1 || !ok2 {
		t.Fatal("missing groups")
	}
	// The paper's headline: SFWB beats the SMART-only baseline on both
	// axes. Small fleets are noisy, so compare with slack on TPR and
	// strictly on the combined Youden index.
	if sfwb.TPR-sfwb.FPR <= s.TPR-s.FPR {
		t.Fatalf("SFWB (%.3f/%.3f) does not beat S (%.3f/%.3f)",
			sfwb.TPR, sfwb.FPR, s.TPR, s.FPR)
	}
	if sfwb.AUC < 0.9 {
		t.Fatalf("SFWB AUC = %g", sfwb.AUC)
	}
}

func TestFig19LookaheadDecays(t *testing.T) {
	res, err := testCtx(t).Fig19()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lookahead) == 0 {
		t.Fatal("no lookahead points")
	}
	near := res.TPRAt(1)
	far := res.TPRAt(21)
	if near <= far {
		t.Fatalf("TPR does not decay with lookahead: %g at 1d vs %g at 21d", near, far)
	}
	if !strings.Contains(res.String(), "lookahead") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig20Overhead(t *testing.T) {
	res, err := testCtx(t).Fig20()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 5 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	if res.PredictionsPerSecond < 1000 {
		t.Fatalf("prediction throughput = %g/s; client-side deployment needs far more", res.PredictionsPerSecond)
	}
	for _, s := range res.Stages {
		if s.Stage == "" || s.Items < 0 {
			t.Fatalf("bad stage %+v", s)
		}
	}
	if !strings.Contains(res.String(), "Per-record prediction") {
		t.Fatal("rendering incomplete")
	}
}

func TestRenderHelpers(t *testing.T) {
	tb := newTable("T", "a", "bb")
	tb.addRow("1", "2")
	out := tb.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "bb") {
		t.Fatalf("rendering = %q", out)
	}
	if pct(0.5) != "50.00%" {
		t.Fatal("pct broken")
	}
	if f4(0.12345) != "0.1234" && f4(0.12345) != "0.1235" {
		t.Fatal("f4 broken")
	}
}
