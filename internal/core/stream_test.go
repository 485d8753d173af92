package core_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bsod"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/modelio"
	"repro/internal/simfleet"
	"repro/internal/ticket"
	"repro/internal/winevent"
)

// Fixture drives added to the simulated fleet. droppedSN carries the
// only copy of a registry-unknown firmware version and a gap no policy
// of the matrix fills, so the clean stage drops it: priming the
// encoders over it would shift every first-seen code after it. gapSN
// is faulty, with its ticket's IMT inside a gap the default policy
// fills: the filled day sequence has a tracking point on the IMT
// itself, the raw days only one a day later.
const (
	droppedSN = "I-FIXTURE-DROPPED"
	gapSN     = "I-FIXTURE-GAP"
)

// gapIMT is the fixture ticket's IMT in a fleet of days days.
func gapIMT(days int) int { return days - 10 }

// streamFleet simulates a fleet and adds the two fixture drives, the
// dropped one first so its firmware would be seen before any other.
// Every second simulated drive keeps only its trailing run of
// consecutive days, so even the policy that drops every gap keeps
// enough drives to train on.
func streamFleet(t *testing.T, cfg simfleet.Config) (*dataset.Frame, *ticket.Store) {
	t.Helper()
	res, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Frame.FilterVendor("I").Drive(0).Model
	d := dataset.New()
	add := func(sn string, fw firmware.Version, days ...int) {
		for _, day := range days {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: model, Day: day, Firmware: fw,
				WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			for j := range r.Smart {
				r.Smart[j] = float64(day*(j+1)) / 3
			}
			r.WCounts[day%len(r.WCounts)] = 1
			r.BCounts[day%len(r.BCounts)] = 0.5
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(droppedSN, "FW-ONLY-ON-DROPPED", 0, 1, cfg.Days-10, cfg.Days-9)
	i := 0
	res.Frame.ToDataset().Each(func(s *dataset.DriveSeries) {
		recs := s.Records
		if i++; i%2 == 0 {
			k := len(recs) - 1
			for k > 0 && recs[k-1].Day == recs[k].Day-1 {
				k--
			}
			recs = recs[k:]
		}
		for _, r := range recs {
			if err := d.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	imt := gapIMT(cfg.Days)
	var gapDays []int
	for day := max(0, cfg.Days-30); day < cfg.Days; day++ {
		if day != imt-1 && day != imt {
			gapDays = append(gapDays, day)
		}
	}
	add(gapSN, "FW-GAP", gapDays...)
	f, err := dataset.FrameFromDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	tickets := ticket.NewStore()
	for _, sn := range res.Tickets.SerialNumbers() {
		for _, tk := range res.Tickets.Lookup(sn) {
			tickets.Add(tk)
		}
	}
	tickets.Add(ticket.Ticket{SerialNumber: gapSN, IMT: imt})
	return f, tickets
}

// TestTrainOnFrameMatchesPrepareThenTrain pins the streaming training
// path — every kept drive's rows streamed from the raw frame through
// the clean and cumulate step straight into extraction — to
// PrepareFrame followed by Train, bit for bit, over gap policies,
// ablation switches, feature groups, the sequence model and worker
// counts.
func TestTrainOnFrameMatchesPrepareThenTrain(t *testing.T) {
	type tc struct {
		policy                  dataset.GapPolicy
		skipClean, skipCumulate bool
		group                   features.Group
		workers                 int
	}
	var flat []tc
	for i, policy := range []dataset.GapPolicy{dataset.DefaultGapPolicy(), {DropGap: 6, FillGap: 3}, {DropGap: 10, FillGap: 1}, {DropGap: 2, FillGap: 1}} {
		flat = append(flat, tc{policy: policy, group: features.GroupSFWB, workers: 1 + 2*(i%2)})
	}
	for i, skip := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		flat = append(flat, tc{policy: dataset.DefaultGapPolicy(), skipClean: skip[0], skipCumulate: skip[1],
			group: features.GroupSFWB, workers: 3 - 2*(i%2)})
	}
	for _, group := range []features.Group{features.GroupS, features.GroupSF} {
		for _, workers := range []int{1, 3} {
			flat = append(flat, tc{policy: dataset.DefaultGapPolicy(), group: group, workers: workers})
		}
	}
	// CNN_LSTM scores every calibration and held-out window: it trains
	// on a fleet small enough to stay quick under the race detector.
	seq := []tc{
		{policy: dataset.DefaultGapPolicy(), group: features.GroupSFWB, workers: 1},
		{policy: dataset.DefaultGapPolicy(), group: features.GroupSFWB, workers: 3},
		{policy: dataset.GapPolicy{DropGap: 6, FillGap: 3}, skipCumulate: true, group: features.GroupSFWB, workers: 3},
		{policy: dataset.DefaultGapPolicy(), skipClean: true, group: features.GroupSFWB, workers: 1},
	}

	flatCfg := simfleet.TinyConfig()
	flatCfg.FailureScale = 0.05
	seqCfg := simfleet.TinyConfig()
	seqCfg.Days = 30
	seqCfg.FailureScale = 0.01
	seqCfg.HealthyPerFaulty = 2
	for _, run := range []struct {
		algo  core.Algorithm
		fleet simfleet.Config
		cases []tc
	}{{core.AlgoRF, flatCfg, flat}, {core.AlgoCNNLSTM, seqCfg, seq}} {
		f, tickets := streamFleet(t, run.fleet)
		for _, c := range run.cases {
			name := fmt.Sprintf("%s/%s/drop%d-fill%d/skipClean=%v/skipCumulate=%v/workers=%d",
				run.algo, c.group, c.policy.DropGap, c.policy.FillGap, c.skipClean, c.skipCumulate, c.workers)
			t.Run(name, func(t *testing.T) {
				cfg := core.DefaultConfig("I")
				cfg.GapPolicy, cfg.SkipClean, cfg.SkipCumulate = c.policy, c.skipClean, c.skipCumulate
				cfg.Group, cfg.Algorithm, cfg.Workers = c.group, run.algo, c.workers
				cfg.SeqLen = 2
				p, err := core.PrepareFrame(f, tickets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireFixtures(t, p, tickets, run.fleet.Days)
				wantModel, want, err := core.Train(p)
				if err != nil {
					t.Fatal(err)
				}
				gotModel, got, err := core.TrainOnFrame(f, tickets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Prepared.Frame != nil {
					t.Fatal("TrainOnFrame materialised the prepared frame")
				}
				requireSameTraining(t, wantModel, gotModel, want, got)
			})
		}
	}
}

// requireFixtures checks the fixture drives came through the
// preparation as intended, so the suite exercises what they are for.
func requireFixtures(t *testing.T, p *core.Prepared, tickets *ticket.Store, days int) {
	t.Helper()
	cfg := p.Config
	if _, kept := p.Frame.DriveIndex(droppedSN); kept != cfg.SkipClean {
		t.Fatalf("fixture %s kept = %v with SkipClean = %v", droppedSN, kept, cfg.SkipClean)
	}
	// Labels come from the prepared days: an IMT inside a filled gap is
	// its own tracking point.
	want, err := labeling.Identify(p.Frame, tickets, cfg.Theta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Labels, want) {
		t.Fatal("labels differ from those of the prepared frame")
	}
	lab, ok := p.Labels[gapSN]
	if kept := cfg.SkipClean || cfg.GapPolicy.DropGap > 3; kept && !ok {
		t.Fatalf("fixture %s unlabelled", gapSN)
	}
	if fills := !cfg.SkipClean && cfg.GapPolicy.FillGap >= 3; fills && (lab.FailDay != gapIMT(days) || lab.Interval != 0) {
		t.Fatalf("fixture %s labelled %+v, want the filled day %d", gapSN, lab, gapIMT(days))
	}
}

// requireSameTraining asserts two trainings agree bit for bit: the
// extracted sample sets, the marshalled models, the evaluation, and
// every count and statistic of the reports.
func requireSameTraining(t *testing.T, wantModel, gotModel *core.Model, want, got *core.TrainReport) {
	t.Helper()
	requireSameSet(t, want.Test.Set(), got.Test.Set())
	wp, gp := want.Prepared, got.Prepared
	if wp.RecordCount != gp.RecordCount || wp.CleanStats != gp.CleanStats || wp.LabelStats != gp.LabelStats {
		t.Fatalf("preparation: records %d, clean %+v, labels %+v; want %d, %+v, %+v",
			gp.RecordCount, gp.CleanStats, gp.LabelStats, wp.RecordCount, wp.CleanStats, wp.LabelStats)
	}
	if !reflect.DeepEqual(wp.Labels, gp.Labels) {
		t.Fatal("labels differ")
	}
	if want.TrainSamples != got.TrainSamples || want.TestSamples != got.TestSamples ||
		want.TrainPos != got.TrainPos || want.TestPos != got.TestPos {
		t.Fatalf("counts: train %d/%d test %d/%d, want %d/%d and %d/%d",
			got.TrainSamples, got.TrainPos, got.TestSamples, got.TestPos,
			want.TrainSamples, want.TrainPos, want.TestSamples, want.TestPos)
	}
	for _, m := range []struct {
		name      string
		want, got float64
	}{
		{"TPR", want.Eval.TPR(), got.Eval.TPR()},
		{"FPR", want.Eval.FPR(), got.Eval.FPR()},
		{"AUC", want.Eval.AUC, got.Eval.AUC},
		{"threshold", wantModel.Threshold, gotModel.Threshold},
	} {
		if math.Float64bits(m.want) != math.Float64bits(m.got) {
			t.Fatalf("%s = %v, want %v", m.name, m.got, m.want)
		}
	}
	wb, err := modelio.Marshal(wantModel)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := modelio.Marshal(gotModel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("marshalled models differ")
	}
}

// requireSameSet asserts two sample sets hold the same rows: values by
// Float64bits, labels, days and serial numbers.
func requireSameSet(t *testing.T, want, got *ml.SampleSet) {
	t.Helper()
	if want.Len() != got.Len() || want.Width() != got.Width() {
		t.Fatalf("set is %d×%d, want %d×%d", got.Len(), got.Width(), want.Len(), want.Width())
	}
	wx, gx := want.Arena(), got.Arena()
	for i := range wx {
		if math.Float64bits(wx[i]) != math.Float64bits(gx[i]) {
			t.Fatalf("row %d (%s day %d) feature %d = %v, want %v",
				i/want.Width(), want.SN(i/want.Width()), want.Day(i/want.Width()), i%want.Width(), gx[i], wx[i])
		}
	}
	for i := 0; i < want.Len(); i++ {
		if want.Y(i) != got.Y(i) || want.Day(i) != got.Day(i) || want.SN(i) != got.SN(i) {
			t.Fatalf("row %d is %s day %d y %d, want %s day %d y %d",
				i, got.SN(i), got.Day(i), got.Y(i), want.SN(i), want.Day(i), want.Y(i))
		}
	}
}
