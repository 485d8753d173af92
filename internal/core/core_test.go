package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/simfleet"
)

// testFleet simulates one small fleet per test binary run.
var testFleetCache *simfleet.FrameResult

func testFleet(t *testing.T) *simfleet.FrameResult {
	t.Helper()
	if testFleetCache == nil {
		cfg := simfleet.TinyConfig()
		cfg.FailureScale = 0.05
		res, err := simfleet.SimulateFrame(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testFleetCache = res
	}
	return testFleetCache
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Group: features.GroupS}
	d := cfg.WithDefaults()
	if d.Algorithm != AlgoRF || d.Theta != 7 || d.PositiveWindowDays != 7 ||
		d.NegativeRatio != 3 || d.TrainFrac != 0.6 || d.SeqLen != 5 || d.CVFolds != 3 {
		t.Fatalf("defaults = %+v", d)
	}
	if d.GapPolicy != dataset.DefaultGapPolicy() {
		t.Fatal("gap policy default wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig("I")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{}, // empty group
		{Group: features.GroupS, TrainFrac: 1.5},
		{Group: features.GroupS, NegativeRatio: -1},
		{Group: features.GroupS, PositiveWindowDays: -3},
		{Group: features.GroupS, Theta: -1},
		{Group: features.GroupS, Algorithm: "nope"},
		{Group: features.GroupS, Bins: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAlgorithms(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 5 {
		t.Fatalf("algorithms = %v", algos)
	}
	if !AlgoCNNLSTM.Sequential() || AlgoRF.Sequential() {
		t.Fatal("Sequential misclassifies")
	}
	for _, a := range algos {
		tr, err := a.newTrainer(1, 45, 5, 0, 0)
		if err != nil {
			t.Errorf("%s: %v", a, err)
			continue
		}
		if tr.Name() == "" {
			t.Errorf("%s trainer has empty name", a)
		}
	}
	if _, err := Algorithm("bogus").newTrainer(1, 4, 2, 0, 0); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestPrepare(t *testing.T) {
	fleet := testFleet(t)
	p, err := PrepareFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Frame.Drives() == 0 {
		t.Fatal("no drives after preparation")
	}
	for i := 0; i < p.Frame.Drives(); i++ {
		if v := p.Frame.Drive(i).Vendor; v != "I" {
			t.Fatalf("vendor filter leaked %s", v)
		}
	}
	if !p.Frame.Cumulated() || p.RecordCount != p.Frame.Len() {
		t.Fatalf("prepared frame: cumulated %v, %d rows, RecordCount %d", p.Frame.Cumulated(), p.Frame.Len(), p.RecordCount)
	}
	if p.LabelStats.Labelled == 0 {
		t.Fatal("no failures labelled")
	}
	if p.Extractor.Width() != 45 {
		t.Fatalf("SFWB width = %d, want 45", p.Extractor.Width())
	}
	// Cleaning must have dropped or filled something in a consumer fleet.
	if p.CleanStats.DrivesDropped == 0 && p.CleanStats.RecordsFilled == 0 {
		t.Fatal("discontinuity optimisation was a no-op on CSS data")
	}
}

func TestPrepareUnknownVendor(t *testing.T) {
	fleet := testFleet(t)
	// The one-call path surfaces the preparation error untouched.
	_, _, err := TrainOnFrame(fleet.Frame, fleet.Tickets, DefaultConfig("XX"))
	if err == nil {
		t.Fatal("unknown vendor accepted")
	}
	if !strings.Contains(err.Error(), `"XX"`) {
		t.Fatalf("error %q does not name the vendor", err)
	}
}

func TestTrainEndToEnd(t *testing.T) {
	fleet := testFleet(t)
	m, rep, err := TrainOnFrame(fleet.Frame, fleet.Tickets, DefaultConfig("I"))
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainerName != "RF" {
		t.Fatalf("trainer = %s", m.TrainerName)
	}
	if rep.TrainSamples == 0 || rep.TestSamples == 0 {
		t.Fatal("empty splits")
	}
	if m.Threshold <= 0 || m.Threshold >= 1 {
		t.Fatalf("calibrated threshold = %g", m.Threshold)
	}
	tpr := rep.Eval.TPR()
	if math.IsNaN(tpr) || tpr < 0.5 {
		t.Fatalf("TPR = %g; the model should beat a coin on simulated data", tpr)
	}
	if fpr := rep.Eval.FPR(); fpr > 0.2 {
		t.Fatalf("FPR = %g is implausibly high", fpr)
	}
	// The report's held-out view is the test half of the extracted set.
	set := rep.Test.Set()
	if set.Width() != m.Width || rep.Test.Len() != rep.TestSamples || rep.TrainSamples >= set.Len() {
		t.Fatalf("held-out view: width %d (model %d), %d rows (report %d) of %d",
			set.Width(), m.Width, rep.Test.Len(), rep.TestSamples, set.Len())
	}
}

func TestTrainFixedThreshold(t *testing.T) {
	fleet := testFleet(t)
	cfg := DefaultConfig("I")
	cfg.FixedThreshold = true
	m, _, err := TrainOnFrame(fleet.Frame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Threshold != 0.5 {
		t.Fatalf("fixed threshold = %g, want 0.5", m.Threshold)
	}
}

func TestEvaluateSamplesDriveAggregation(t *testing.T) {
	clf := scoreFirst{}
	samples := []ml.Sample{
		// Drive "bad": 2 of 3 samples flagged → drive predicted faulty.
		{X: []float64{0.9}, Y: 1, SN: "bad", Day: 1},
		{X: []float64{0.8}, Y: 1, SN: "bad", Day: 2},
		{X: []float64{0.1}, Y: 1, SN: "bad", Day: 3},
		// Drive "good": 1 of 3 flagged → drive predicted healthy.
		{X: []float64{0.7}, Y: 0, SN: "good", Day: 1},
		{X: []float64{0.2}, Y: 0, SN: "good", Day: 2},
		{X: []float64{0.3}, Y: 0, SN: "good", Day: 3},
	}
	ev := EvaluateSamples(clf, viewOf(t, samples))
	if ev.Confusion.TP != 2 || ev.Confusion.FN != 1 || ev.Confusion.FP != 1 || ev.Confusion.TN != 2 {
		t.Fatalf("sample confusion = %+v", ev.Confusion)
	}
	if ev.DriveConfusion.TP != 1 || ev.DriveConfusion.TN != 1 ||
		ev.DriveConfusion.FP != 0 || ev.DriveConfusion.FN != 0 {
		t.Fatalf("drive confusion = %+v", ev.DriveConfusion)
	}
	if ev.AUC < 0 || ev.AUC > 1 {
		t.Fatalf("AUC = %g", ev.AUC)
	}
}

func TestEvaluateRangeFilters(t *testing.T) {
	clf := scoreFirst{}
	samples := []ml.Sample{
		{X: []float64{0.9}, Y: 1, SN: "a", Day: 10},
		{X: []float64{0.9}, Y: 1, SN: "a", Day: 20},
		{X: []float64{0.1}, Y: 0, SN: "b", Day: 30},
	}
	m := &Model{Classifier: clf, Threshold: 0.5}
	ev := m.EvaluateRange(viewOf(t, samples), 15, 25)
	if ev.Confusion.Total() != 1 || ev.Confusion.TP != 1 {
		t.Fatalf("range confusion = %+v", ev.Confusion)
	}
}

func TestWalkForwardWindows(t *testing.T) {
	clf := scoreFirst{}
	var samples []ml.Sample
	for day := 0; day < 100; day++ {
		samples = append(samples, ml.Sample{X: []float64{0.1}, Y: 0, SN: "h", Day: day})
	}
	m := &Model{Classifier: clf, Threshold: 0.5, TrainEndDay: 9}
	months := m.WalkForward(viewOf(t, samples), 30, 3)
	if len(months) != 3 {
		t.Fatalf("months = %d", len(months))
	}
	if months[0].FromDay != 10 || months[0].ToDay != 39 {
		t.Fatalf("month 1 range = %d..%d", months[0].FromDay, months[0].ToDay)
	}
	if months[2].FromDay != 70 {
		t.Fatalf("month 3 from = %d", months[2].FromDay)
	}
	if months[0].Negative != 30 {
		t.Fatalf("month 1 negatives = %d", months[0].Negative)
	}
}

func TestYoudenNaNSafe(t *testing.T) {
	var ev Evaluation
	if got := ev.Youden(); got != 0 {
		t.Fatalf("empty Youden = %g", got)
	}
}

func TestAblationSwitches(t *testing.T) {
	fleet := testFleet(t)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.SkipClean = true },
		func(c *Config) { c.SkipCumulate = true },
		func(c *Config) { c.RandomSegmentation = true },
	} {
		cfg := DefaultConfig("I")
		mutate(&cfg)
		if _, _, err := TrainOnFrame(fleet.Frame, fleet.Tickets, cfg); err != nil {
			t.Fatalf("ablation variant failed: %v", err)
		}
	}
}

// viewOf returns the all-rows view of a set built from samples.
func viewOf(t *testing.T, samples []ml.Sample) ml.View {
	t.Helper()
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	return set.All()
}

// shuffledRows returns a seeded permutation of n arena rows.
func shuffledRows(r *rand.Rand, n int) []int32 {
	rows := make([]int32, n)
	for i, p := range r.Perm(n) {
		rows[i] = int32(p)
	}
	return rows
}

// scoreFirst scores by the first feature.
type scoreFirst struct{}

func (scoreFirst) PredictProba(x []float64) float64 { return x[0] }

func TestEvaluateRangeEmptyWindow(t *testing.T) {
	m := &Model{Classifier: scoreFirst{}, Threshold: 0.5}
	samples := []ml.Sample{{X: []float64{0.9}, Y: 1, SN: "a", Day: 20}}
	ev := m.EvaluateRange(viewOf(t, samples), 0, 10)
	if ev.Confusion.Total() != 0 {
		t.Fatalf("empty window produced %d cases", ev.Confusion.Total())
	}
}

func TestCalibrationFallsBackOnTinyTraining(t *testing.T) {
	// With too few samples for TS-CV folds, calibration fails softly
	// and the pipeline keeps the 0.5 default.
	var train []ml.Sample
	for i := 0; i < 4; i++ {
		train = append(train, ml.Sample{X: []float64{float64(i)}, Y: i % 2, Day: i, SN: "s"})
	}
	trainer, err := AlgoRF.newTrainer(1, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := calibrateThresholdView(trainer, viewOf(t, train), Config{CVFolds: 30, NegativeRatio: 3}); err == nil {
		t.Fatal("impossible fold count accepted")
	}
}

func TestWalkForwardSkipsEmptyMonths(t *testing.T) {
	m := &Model{Classifier: scoreFirst{}, Threshold: 0.5, TrainEndDay: 0}
	samples := []ml.Sample{{X: []float64{0.1}, Y: 0, SN: "a", Day: 95}}
	months := m.WalkForward(viewOf(t, samples), 30, 4)
	if len(months) != 1 || months[0].Month != 4 {
		t.Fatalf("months = %+v", months)
	}
}

func TestDayWindowsMatchFilterOnUnsortedInput(t *testing.T) {
	// Windows are binary-searched runs of one chronological row order;
	// the view's row order must not change any evaluation.
	r := rand.New(rand.NewSource(9))
	var samples []ml.Sample
	for i := 0; i < 300; i++ {
		samples = append(samples, ml.Sample{
			X:   []float64{r.Float64()},
			Y:   r.Intn(2),
			SN:  fmt.Sprintf("d%02d", r.Intn(20)),
			Day: r.Intn(120),
		})
	}
	ordered := viewOf(t, samples)
	shuffled := ordered.WithRows(shuffledRows(r, len(samples)))
	m := &Model{Classifier: scoreFirst{}, Threshold: 0.5, TrainEndDay: 20}

	evA := m.EvaluateRange(ordered, 30, 60)
	evB := m.EvaluateRange(shuffled, 30, 60)
	if evA != evB {
		t.Fatalf("EvaluateRange depends on input order:\n%+v\n%+v", evA, evB)
	}
	moA := m.WalkForward(ordered, 30, 3)
	moB := m.WalkForward(shuffled, 30, 3)
	if len(moA) != len(moB) {
		t.Fatalf("month counts differ: %d vs %d", len(moA), len(moB))
	}
	for i := range moA {
		if moA[i] != moB[i] {
			t.Fatalf("month %d depends on input order:\n%+v\n%+v", i, moA[i], moB[i])
		}
	}
}

func TestWalkForwardDoesNotMutateInput(t *testing.T) {
	samples := []ml.Sample{
		{X: []float64{0.2}, SN: "a", Day: 50},
		{X: []float64{0.3}, SN: "b", Day: 10},
		{X: []float64{0.4}, SN: "c", Day: 30},
	}
	v := viewOf(t, samples).WithRows([]int32{2, 0, 1})
	m := &Model{Classifier: scoreFirst{}, Threshold: 0.5, TrainEndDay: 0}
	m.WalkForward(v, 30, 2)
	m.EvaluateRange(v, 0, 100)
	for i, want := range []int32{2, 0, 1} {
		if got := v.RowIndex(i); got != want {
			t.Fatalf("view reordered at %d: row %d, want %d", i, got, want)
		}
	}
}
