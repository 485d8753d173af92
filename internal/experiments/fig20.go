package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/features"
)

// Fig20Result reproduces Fig. 20: the overhead of each MFPA stage —
// data items processed, execution time, and approximate working-set
// size — plus the per-record prediction latency that makes client-side
// deployment feasible (the paper reports microsecond-level prediction).
type Fig20Result struct {
	Stages []StageOverhead
	// PredictionsPerSecond is the single-threaded prediction throughput
	// of the trained model.
	PredictionsPerSecond float64
	// PredictLatency is the mean per-record prediction latency.
	PredictLatency time.Duration
}

// StageOverhead is one pipeline stage's cost.
type StageOverhead struct {
	Stage string
	Items int
	Time  time.Duration
	// Bytes approximates the stage's working set.
	Bytes int64
}

// recordBytes approximates one telemetry record's in-memory size:
// 16 SMART + 9 W + 22 B float64s, day/flags, and string headers.
const recordBytes = (16+9+22)*8 + 64

// sampleBytes approximates one extracted sample (width-45 SFWB vector).
const sampleBytes = 45*8 + 48

// Fig20 instruments a full pipeline run on vendor I. It prepares and
// trains afresh, past the context's caches, because preparation and
// sample construction are the costs it reports.
func (c *Context) Fig20() (*Fig20Result, error) {
	cfg := c.PipelineConfig(primaryVendor, features.GroupSFWB)
	p, err := c.prepare(cfg)
	if err != nil {
		return nil, err
	}
	m, rep, err := core.Train(p)
	if err != nil {
		return nil, err
	}
	res := &Fig20Result{
		Stages: []StageOverhead{
			{
				Stage: "Feature engineering (clean+cumulate)",
				Items: p.RecordCount,
				Time:  p.CleanTime,
				Bytes: int64(p.RecordCount) * recordBytes,
			},
			{
				Stage: "Failure-time identification",
				Items: p.LabelStats.Labelled,
				Time:  p.LabelTime,
				Bytes: int64(p.LabelStats.Labelled) * 64,
			},
			{
				Stage: "Sample construction",
				Items: rep.TrainSamples + rep.TestSamples,
				Time:  rep.SampleTime,
				Bytes: int64(rep.TrainSamples+rep.TestSamples) * sampleBytes,
			},
			{
				Stage: "Model training (incl. calibration)",
				Items: rep.TrainSamples,
				Time:  rep.TrainTime,
				Bytes: int64(rep.TrainSamples) * sampleBytes,
			},
			{
				Stage: "Prediction (held-out)",
				Items: rep.TestSamples,
				Time:  rep.EvalTime,
				Bytes: int64(rep.TestSamples) * sampleBytes,
			},
		},
	}

	// Measure raw prediction throughput on real feature vectors.
	set := rep.Test.Set()
	const probes = 20000
	start := time.Now()
	for i := 0; i < probes; i++ {
		m.Predict(set.Row(i % set.Len()))
	}
	elapsed := time.Since(start)
	res.PredictionsPerSecond = probes / elapsed.Seconds()
	res.PredictLatency = elapsed / probes
	return res, nil
}

// String renders the overhead table.
func (r *Fig20Result) String() string {
	t := newTable("Fig 20: MFPA overhead by stage (vendor I)",
		"Stage", "Items", "Time", "Approx bytes")
	for _, s := range r.Stages {
		t.addRow(s.Stage, fmt.Sprint(s.Items), s.Time.Round(time.Microsecond).String(), fmt.Sprint(s.Bytes))
	}
	t.addRow("Per-record prediction", "1", r.PredictLatency.Round(time.Nanosecond).String(),
		fmt.Sprintf("(%.0f predictions/s)", r.PredictionsPerSecond))
	return t.String()
}
