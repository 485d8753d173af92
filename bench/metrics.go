package main

import "fmt"

// metricSpec is one entry of the metric catalog that BENCHMARK.json
// mirrors (a unit test keeps the two equal).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	Why   string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one; what "an operation" is depends on the workload
// (see the README).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Why: "median time to build the workload's inputs over the set-ups of one run"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "median latency of one operation"},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25,
		Why: "highest percentile of operation latency with at least ten samples beyond it (the median in short runs)"},
	{Name: "drive_days_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Why: "telemetry drive-days processed per second of operation time"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2,
		Why: "peak resident set of the benchmark process (getrusage maxrss)"},
}

// procsSuffixes are the two GOMAXPROCS settings of a traced run.
var procsSuffixes = []string{"p1", "pN"}

// layerBase lists the per-layer metrics before the procs suffix. A
// "<span>_ms" metric of a span inside the timed operation is that span
// name's summed self time per operation (see selfByName), so the
// layers' values and the harness's own remainder add up to the mean
// operation latency; spans beside the operation are reported per call.
var layerBase = []metricSpec{
	{Name: "bench.op_ms", Unit: "ms", Better: "lower", Why: "traced median operation latency"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower", Why: "heap bytes allocated per operation"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Why: "GC cycles per operation"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Why: "stop-the-world GC pause per operation"},

	// retrain: read, then core.TrainOnFrame with its reported stages.
	{Name: "dataset.read_ms", Unit: "ms", Better: "lower", Why: "dataset.ReadTelemetry of the MFPAC file"},
	{Name: "core.train_on_frame_ms", Unit: "ms", Better: "lower", Why: "TrainOnFrame outside its reported stages: vendor filter, split, under-sampling"},
	{Name: "dataset.prepare_ms", Unit: "ms", Better: "lower", Why: "Prepared.CleanTime: fused clean and cumulate"},
	{Name: "labeling.identify_ms", Unit: "ms", Better: "lower", Why: "Prepared.LabelTime"},
	{Name: "features.build_ms", Unit: "ms", Better: "lower", Why: "TrainReport.SampleTime: sample-set extraction"},
	{Name: "core.train_ms", Unit: "ms", Better: "lower", Why: "TrainReport.TrainTime: TS-CV threshold calibration plus fit"},
	{Name: "ml.eval_ms", Unit: "ms", Better: "lower", Why: "TrainReport.EvalTime: held-out scoring"},
	{Name: "modelio.marshal_ms", Unit: "ms", Better: "lower", Why: "modelio.Marshal"},
	{Name: "dataset.prepared_rows", Unit: "count", Better: "higher", Why: "drive-days after cleaning, per operation"},
	{Name: "core.train_samples", Unit: "count", Better: "higher", Why: "training samples after under-sampling, per operation"},
	{Name: "ml.eval_rows", Unit: "count", Better: "higher", Why: "held-out rows scored, per operation"},
	{Name: "modelio.bytes", Unit: "bytes", Better: "lower", Why: "marshalled model bytes, per operation"},

	// serve_steady: ObserveDay, the model swap, and mirror calls on the
	// same batches.
	{Name: "serve.observe_ms", Unit: "ms", Better: "lower", Why: "serve.Scorer.ObserveDay (serve_restart: the first day)"},
	{Name: "serve.swap_ms", Unit: "ms", Better: "lower", Why: "serve.Scorer.UpdateModel, per swap"},
	{Name: "modelio.unmarshal_ms", Unit: "ms", Better: "lower", Why: "modelio.Unmarshal of the swapped-in model, per swap"},
	{Name: "serve.first_day_after_swap_ms", Unit: "ms", Better: "lower", Why: "latency of the first ObserveDay after a swap"},
	{Name: "dataset.validate_ns_per_record", Unit: "ns", Better: "lower", Why: "mirror: Record.Validate"},
	{Name: "features.advance_ns_per_record", Unit: "ns", Better: "lower", Why: "mirror: RollingState.Advance with extraction on harness-owned states"},
	{Name: "ml.score_ns_per_row", Unit: "ns", Better: "lower", Why: "mirror: ml.ScoreBatch on the mirror's rows"},
	{Name: "serve.overhead_share", Unit: "share", Better: "lower", Why: "1 - mirror time / ObserveDay time: fan-out, planning, merge"},
	{Name: "serve.records", Unit: "count", Better: "higher", Why: "SweepStats.Records per ObserveDay"},
	{Name: "serve.scored", Unit: "count", Better: "higher", Why: "SweepStats.Scored per ObserveDay"},
	{Name: "serve.dropped", Unit: "count", Better: "lower", Why: "SweepStats.Dropped per ObserveDay"},
	{Name: "serve.quarantined", Unit: "count", Better: "lower", Why: "SweepStats.Quarantined per ObserveDay"},
	{Name: "serve.skipped", Unit: "count", Better: "lower", Why: "SweepStats.Skipped per ObserveDay"},
	{Name: "serve.degraded", Unit: "count", Better: "lower", Why: "SweepStats.Degraded per ObserveDay"},
	{Name: "serve.useful_ratio", Unit: "ratio", Better: "higher", Why: "records that produced scored rows / records"},

	// serve_restart: read, load, new, replay, first day.
	{Name: "modelio.load_ms", Unit: "ms", Better: "lower", Why: "modelio.LoadFile"},
	{Name: "serve.new_ms", Unit: "ms", Better: "lower", Why: "serve.New"},
	{Name: "serve.replay_ms", Unit: "ms", Better: "lower", Why: "serve.Scorer.ReplayFrame"},
	{Name: "dataset.read_mb_per_s", Unit: "MB/s", Better: "higher", Why: "MFPAC bytes decoded per second of dataset.ReadTelemetry"},
	{Name: "serve.replay_records_per_s", Unit: "1/s", Better: "higher", Why: "history records replayed per second of ReplayFrame"},

	// paper_repro: the fleet, then the experiments.
	{Name: "simfleet.simulate_ms", Unit: "ms", Better: "lower", Why: "experiments.NewContextWith, which is simfleet.Simulate, per context"},
	{Name: "experiments.fig9_ms", Unit: "ms", Better: "lower", Why: "experiment fig9: feature groups"},
	{Name: "experiments.fig18_ms", Unit: "ms", Better: "lower", Why: "experiment fig18: baselines"},
	{Name: "experiments.gaps_ms", Unit: "ms", Better: "lower", Why: "experiment gaps: discontinuity-policy ablation"},
	{Name: "experiments.ratio_ms", Unit: "ms", Better: "lower", Why: "experiment ratio: under-sampling ablation"},
}

// traceOverhead is the one per-layer metric without a procs suffix.
var traceOverhead = metricSpec{Name: "trace_overhead", Unit: "ratio", Better: "lower",
	Why: "traced median operation latency / untraced, minus 1, at GOMAXPROCS=nproc"}

// perLayer is the full per-layer catalog: every base metric at each
// procs setting, then the tracing overhead.
func perLayer() []metricSpec {
	out := make([]metricSpec, 0, 2*len(layerBase)+1)
	for _, m := range layerBase {
		for _, p := range procsSuffixes {
			m2 := m
			m2.Name = m.Name + "." + p
			out = append(out, m2)
		}
	}
	return append(out, traceOverhead)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the reported metric map from measured values: every
// catalog entry appears, a catalog metric the workload did not measure
// (a layer it never calls) reads 0, and a value outside the catalog is
// an error.
func fill(catalog []metricSpec, values map[string]float64) (map[string]metric, error) {
	known := make(map[string]bool, len(catalog))
	out := make(map[string]metric, len(catalog))
	for _, m := range catalog {
		known[m.Name] = true
		out[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not in the catalog", name)
		}
	}
	return out, nil
}
