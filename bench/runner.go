package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// options configure one workload run.
type options struct {
	seed    int64
	measure time.Duration // how long the timed loop runs
	trace   bool
	// workDir holds files a workload writes and reads back.
	workDir string
}

// workload is one named set of inputs and the operation repeated on
// them in a closed loop with one caller.
type workload struct {
	name string
	why  string
	// tail is the percentile op_ms_tail reports, fixed per workload so
	// that every run reports the same statistic: the highest that leaves
	// at least minBeyond operations beyond it in a run of the benchmark's
	// length, even on a machine half as fast. 0 reports the median, for
	// workloads with too few operations to have a tail.
	tail float64
	// setup builds the workload's inputs.
	setup func(sz *sizes, o *options) (instance, error)
}

// instance is a workload with its inputs built.
type instance interface {
	// sizes describes the inputs for the environment record.
	sizes() map[string]int
	// summary states the outputs the gates pinned, so two runs can be
	// compared by eye.
	summary() string
	// run performs operations through m until deadline has passed,
	// always at least one operation or, for a pass-structured workload,
	// one whole pass. It checks every output against the workload's
	// correctness gates and returns an error naming the first gate that
	// fails.
	run(m *meter, deadline time.Time) error
	// layerMetrics derives the workload's own per-layer values (counts,
	// rates, ratios, calls beside the operation) from a traced phase and
	// its self times.
	layerMetrics(m *meter, self selfNs) map[string]float64
}

// meter records the operations of one phase of a run.
type meter struct {
	tr      *tracer // nil when the phase is untraced
	samples []time.Duration
	rows    int64 // drive-days processed by timed operations
	busy    time.Duration
	counts  map[string]float64
	goUse   goStats // runtime cost of the operations; traced phases only
}

// op times one operation. fn returns the drive-days it processed.
func (m *meter) op(fn func() (int, error)) error {
	var before goStats
	if m.tr != nil {
		before = readGoStats()
	}
	id := m.tr.begin(rootSpan)
	start := time.Now()
	rows, err := fn()
	d := time.Since(start)
	m.tr.end(id)
	if m.tr != nil {
		m.goUse.add(readGoStats().minus(before))
	}
	if err != nil {
		return err
	}
	m.samples = append(m.samples, d)
	m.busy += d
	m.rows += int64(rows)
	return nil
}

// count adds v to the named per-phase counter.
func (m *meter) count(name string, v float64) {
	if m.counts == nil {
		m.counts = make(map[string]float64)
	}
	m.counts[name] += v
}

// perOp is a counter divided by the number of operations.
func (m *meter) perOp(name string) float64 {
	if len(m.samples) == 0 {
		return 0
	}
	return m.counts[name] / float64(len(m.samples))
}

// perOpMs converts a phase total in nanoseconds to milliseconds per
// operation.
func (m *meter) perOpMs(ns int64) float64 {
	if len(m.samples) == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(len(m.samples))
}

// medianMs is the median operation latency in milliseconds.
func (m *meter) medianMs() float64 { return median(millis(m.samples)) }

// goStats are cumulative runtime counters.
type goStats struct {
	allocBytes float64
	gcCycles   float64
	pause      time.Duration
}

func (g *goStats) add(o goStats) {
	g.allocBytes += o.allocBytes
	g.gcCycles += o.gcCycles
	g.pause += o.pause
}

func (g goStats) minus(o goStats) goStats {
	return goStats{g.allocBytes - o.allocBytes, g.gcCycles - o.gcCycles, g.pause - o.pause}
}

var goSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readGoStats() goStats {
	metrics.Read(goSamples)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return goStats{
		allocBytes: float64(goSamples[0].Value.Uint64()),
		gcCycles:   float64(goSamples[1].Value.Uint64()),
		pause:      gc.PauseTotal,
	}
}

// peakRSSMB is the process's peak resident set in MB (maxrss is in KiB
// on Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// setupReps is how many times an untraced run builds its inputs;
// setup_s is the median. The first two set-ups of a process run 20-30%
// slower than later ones while the heap first grows into fresh pages, so
// with five the median is a set-up on a warm heap.
const setupReps = 5

// outcome is everything one workload run produced.
type outcome struct {
	values  map[string]float64
	samples map[string]int // sample count behind each timing
	ops     int            // timed operations
	// opQuartiles are the quartiles of an untraced run's operation
	// latencies in ms.
	opQuartiles [3]float64
	inst        instance
	phases      []phase // traced phases, for the span file
}

// phase is one traced phase's spans.
type phase struct {
	Procs int    `json:"gomaxprocs"`
	Spans []span `json:"spans"`
}

// runWorkload builds the workload's inputs, warms it up, and measures
// it: untraced for the end-to-end metrics, traced for the per-layer
// ones.
func runWorkload(w workload, sz *sizes, o *options) (*outcome, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var inst instance
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		inst = nil
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(sz, o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := inst.run(&meter{}, time.Now()); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	out := &outcome{values: make(map[string]float64), samples: make(map[string]int), inst: inst}
	var err error
	if o.trace {
		err = measureLayers(out, inst, o.measure)
	} else {
		err = measureEndToEnd(out, inst, setups, o.measure, w.tail)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return out, nil
}

// measureEndToEnd runs the timed loop untraced for d; op_ms_tail is the
// tailP-th percentile.
func measureEndToEnd(out *outcome, inst instance, setups []float64, d time.Duration, tailP float64) error {
	m, err := measure(inst, nil, d)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	ms := millis(m.samples)
	out.ops = len(ms)
	if tailPercentile(len(ms)) < tailP {
		fmt.Fprintf(os.Stderr, "bench: only %d operations: fewer than %d beyond op_ms_tail's p%g\n", len(ms), minBeyond, tailP)
	}
	out.values["setup_s"] = median(setups)
	out.values["op_ms_p50"] = median(ms)
	out.values["op_ms_tail"] = tail(ms, tailP)
	out.values["drive_days_per_s"] = float64(m.rows) / m.busy.Seconds()
	out.values["peak_rss_mb"] = rss
	q1, q2, q3 := quartiles(ms)
	out.opQuartiles = [3]float64{q1, q2, q3}
	out.samples["setup_s"] = len(setups)
	for _, k := range []string{"op_ms_p50", "op_ms_tail", "drive_days_per_s"} {
		out.samples[k] = out.ops
	}
	return nil
}

// measureLayers is the traced run. At GOMAXPROCS=nproc untraced and
// traced operations alternate for two thirds of d, so the tracing
// overhead is not confounded with drift between phases; a traced phase
// at GOMAXPROCS=1 takes the last third.
func measureLayers(out *outcome, inst instance, d time.Duration) error {
	plain, pN := &meter{}, &meter{tr: newTracer()}
	runtime.GC()
	deadline := time.Now().Add(2 * d / 3)
	for len(pN.samples) == 0 || time.Now().Before(deadline) {
		for _, m := range []*meter{plain, pN} {
			if err := inst.run(m, time.Now()); err != nil {
				return fmt.Errorf("at GOMAXPROCS=%d: %w", runtime.GOMAXPROCS(0), err)
			}
		}
	}
	nproc := runtime.GOMAXPROCS(1)
	p1, err := measure(inst, newTracer(), d/3)
	runtime.GOMAXPROCS(nproc)
	if err != nil {
		return fmt.Errorf("at GOMAXPROCS=1: %w", err)
	}
	out.values["trace_overhead"] = pN.medianMs()/plain.medianMs() - 1
	out.ops = len(plain.samples) + len(pN.samples) + len(p1.samples)
	for _, p := range []struct {
		suffix string
		procs  int
		m      *meter
	}{{"pN", nproc, pN}, {"p1", 1, p1}} {
		out.phases = append(out.phases, phase{Procs: p.procs, Spans: p.m.tr.spans})
		for name, v := range layerValues(inst, p.m) {
			out.values[name+"."+p.suffix] = v
		}
		out.samples["bench.op_ms."+p.suffix] = len(p.m.samples)
	}
	return nil
}

// layerValues derives the per-layer metrics of one traced phase.
func layerValues(inst instance, m *meter) map[string]float64 {
	self := selfByName(m.tr.spans)
	vals := inst.layerMetrics(m, self)
	for name, ns := range self.inside {
		if name != rootSpan {
			vals[name+"_ms"] = m.perOpMs(ns)
		}
	}
	ops := float64(len(m.samples))
	vals["bench.op_ms"] = m.medianMs()
	vals["go.alloc_mb"] = m.goUse.allocBytes / 1e6 / ops
	vals["go.gc_cycles"] = m.goUse.gcCycles / ops
	vals["go.gc_pause_ms"] = m.perOpMs(int64(m.goUse.pause))
	return vals
}

// measure runs one phase: a GC to start from a clean heap, then
// operations until d has passed.
func measure(inst instance, tr *tracer, d time.Duration) (*meter, error) {
	runtime.GC()
	m := &meter{tr: tr}
	if err := inst.run(m, time.Now().Add(d)); err != nil {
		return nil, err
	}
	if len(m.samples) == 0 || m.busy <= 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	return m, nil
}

// finite rejects values JSON cannot carry.
func finite(values map[string]float64) error {
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
