package agent

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/simfleet"
)

// trainedSetup simulates a fleet and trains the standard model once for
// the whole test binary.
var (
	cachedFleet *simfleet.Result
	cachedFrame *dataset.Frame
	cachedModel *core.Model
)

func setup(t *testing.T) (*simfleet.Result, *core.Model) {
	t.Helper()
	if cachedFleet == nil {
		cfg := simfleet.TinyConfig()
		cfg.FailureScale = 0.04
		fleet, err := simfleet.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := dataset.FrameFromDataset(fleet.Data)
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := core.TrainOnFrame(frame, fleet.Tickets, core.DefaultConfig("I"))
		if err != nil {
			t.Fatal(err)
		}
		cachedFleet, cachedFrame, cachedModel = fleet, frame, model
	}
	return cachedFleet, cachedModel
}

// streamDrive feeds a drive's raw records through an agent and returns
// the last assessment.
func streamDrive(t *testing.T, a *Agent, fleet *simfleet.Result, sn string) (last Assessment, alarmedAt int) {
	t.Helper()
	series, ok := fleet.Data.Series(sn)
	if !ok {
		t.Fatalf("drive %s missing", sn)
	}
	alarmedAt = -1
	for i := range series.Records {
		as, err := a.Observe(series.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if as.Alarmed && alarmedAt == -1 {
			alarmedAt = as.Day
		}
		last = as
	}
	return last, alarmedAt
}

// pickDrives returns one ramped faulty and one plain healthy vendor-I
// drive.
func pickDrives(t *testing.T, fleet *simfleet.Result) (faulty, healthy string) {
	t.Helper()
	for sn, truth := range fleet.Truth {
		if truth.Vendor != "I" {
			continue
		}
		if truth.Kind == "faulty" && faulty == "" {
			faulty = sn
		}
		if truth.Kind == "healthy" && healthy == "" {
			healthy = sn
		}
	}
	if faulty == "" || healthy == "" {
		t.Skip("fleet lacks required drive kinds")
	}
	return faulty, healthy
}

func TestAgentAlarmsOnFailingDrive(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Alarm on most ramped faulty drives, before or at failure.
	alarms, checked := 0, 0
	for sn, truth := range fleet.Truth {
		if truth.Vendor != "I" || truth.Kind != "faulty" {
			continue
		}
		checked++
		_, alarmedAt := streamDrive(t, a, fleet, sn)
		if alarmedAt >= 0 {
			alarms++
			if alarmedAt > truth.FailDay {
				t.Errorf("drive %s alarmed after failure day", sn)
			}
		}
	}
	if checked == 0 {
		t.Skip("no ramped faulty vendor-I drives")
	}
	if rate := float64(alarms) / float64(checked); rate < 0.7 {
		t.Fatalf("agent alarmed on only %.0f%% of failing drives", rate*100)
	}
}

func TestAgentQuietOnHealthyDrives(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alarms, checked := 0, 0
	for sn, truth := range fleet.Truth {
		if truth.Vendor != "I" || truth.Kind != "healthy" {
			continue
		}
		checked++
		if _, alarmedAt := streamDrive(t, a, fleet, sn); alarmedAt >= 0 {
			alarms++
		}
		if checked >= 120 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no healthy drives")
	}
	if rate := float64(alarms) / float64(checked); rate > 0.08 {
		t.Fatalf("agent alarmed on %.0f%% of healthy drives", rate*100)
	}
}

func TestAgentCumulationMatchesPipeline(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)

	// Pipeline-side cumulation.
	d := dataset.New()
	for i := range series.Records {
		if err := d.Append(series.Records[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := dataset.FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	cum, _, err := dataset.PreparePipeline(raw, dataset.PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	cumSeries, _ := cum.ToDataset().Series(faulty)

	// Agent-side: observe raw records, compare internal accumulation by
	// scoring — identical cumulated vectors give identical scores.
	for i := range series.Records {
		as, err := a.Observe(series.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		ext := a.extractor.Extract(&cumSeries.Records[i])
		want := model.Predict(ext)
		if as.Probability != want {
			t.Fatalf("record %d: agent score %g, pipeline score %g", i, as.Probability, want)
		}
	}
}

func TestAgentRejectsOutOfOrder(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	if _, err := a.Observe(series.Records[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Observe(series.Records[0]); err == nil {
		t.Fatal("out-of-order record accepted")
	}
}

func TestAgentHysteresis(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{AlarmAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	sawFlagBeforeAlarm := false
	for i := range series.Records {
		as, err := a.Observe(series.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if as.Alarmed && as.ConsecutiveFlags < 3 && as.Flagged {
			// Alarm may only latch at ≥3 consecutive flags.
			t.Fatalf("alarm latched at %d consecutive flags", as.ConsecutiveFlags)
		}
		if as.Flagged && !as.Alarmed {
			sawFlagBeforeAlarm = true
		}
	}
	_ = sawFlagBeforeAlarm // informational; ramp may be steep enough to skip it
}

func TestAgentModelUpdate(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Retrain with a different seed and push.
	cfg := core.DefaultConfig("I")
	cfg.Seed = 9
	next, _, err := core.TrainOnFrame(cachedFrame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateModel(next); err != nil {
		t.Fatal(err)
	}
	if a.Threshold() != next.Threshold {
		t.Fatal("threshold did not follow the pushed model")
	}
	// Group mismatch must be rejected.
	bad := core.DefaultConfig("I")
	bad.Group = features.GroupS
	wrong, _, err := core.TrainOnFrame(cachedFrame, fleet.Tickets, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateModel(wrong); err == nil {
		t.Fatal("group change accepted")
	}
}

func TestAgentResetDrive(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	streamDrive(t, a, fleet, faulty)
	if len(a.Drives()) != 1 {
		t.Fatalf("drives = %v", a.Drives())
	}
	if !a.ResetDrive(faulty) {
		t.Fatal("ResetDrive failed")
	}
	if a.ResetDrive(faulty) {
		t.Fatal("second ResetDrive succeeded")
	}
	if a.Alarmed(faulty) {
		t.Fatal("alarm survived reset")
	}
}

func TestAgentRejectsSequenceModels(t *testing.T) {
	_, model := setup(t)
	seq := *model
	seq.Config.Algorithm = core.AlgoCNNLSTM
	if _, err := New(&seq, Options{}); err == nil {
		t.Fatal("sequence model accepted")
	}
}

func TestAgentExplainsFlags(t *testing.T) {
	fleet, model := setup(t)
	a, err := New(model, Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	sawFactors := false
	for i := range series.Records {
		as, err := a.Observe(series.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if as.Flagged {
			if len(as.TopFactors) == 0 {
				t.Fatal("flagged assessment lacks factors despite Explain")
			}
			if len(as.TopFactors) > 3 {
				t.Fatalf("%d factors, want ≤ 3", len(as.TopFactors))
			}
			for i := 1; i < len(as.TopFactors); i++ {
				if as.TopFactors[i].Contribution > as.TopFactors[i-1].Contribution {
					t.Fatal("factors not sorted by contribution")
				}
			}
			for _, f := range as.TopFactors {
				if f.Feature == "" || f.Contribution <= 0 {
					t.Fatalf("bad factor %+v", f)
				}
			}
			sawFactors = true
		} else if as.TopFactors != nil {
			t.Fatal("unflagged assessment carries factors")
		}
	}
	if !sawFactors {
		t.Skip("drive never flagged")
	}
}
