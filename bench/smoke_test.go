package main

import (
	"fmt"
	"testing"
	"time"
)

// layerCalls lists, per workload, per-layer metrics of calls the
// workload makes, so a traced run must measure them above zero.
var layerCalls = map[string][]string{
	"retrain": {"dataset.read_ms", "core.train_on_frame_ms", "dataset.prepare_ms", "features.build_ms",
		"core.train_ms", "ml.eval_ms", "modelio.marshal_ms", "core.train_samples", "modelio.bytes"},
	"serve_steady": {"serve.observe_ms", "serve.swap_ms", "modelio.unmarshal_ms", "serve.first_day_after_swap_ms",
		"dataset.validate_ns_per_record", "features.advance_ns_per_record", "ml.score_ns_per_row",
		"serve.records", "serve.scored", "serve.useful_ratio"},
	"serve_restart": {"dataset.read_ms", "dataset.read_mb_per_s", "modelio.load_ms", "serve.new_ms", "serve.replay_ms",
		"serve.replay_records_per_s", "serve.observe_ms"},
	"paper_repro": {"simfleet.simulate_ms", "experiments.fig9_ms", "experiments.fig18_ms", "experiments.gaps_ms",
		"experiments.ratio_ms"},
}

// TestSmoke runs every workload at the tiny simulator size, untraced and
// traced, with every correctness gate, and checks that each run reports
// its whole catalog.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				smoke(t, w, traced)
			})
		}
	}
}

func smoke(t *testing.T, w workload, traced bool) {
	sz := tinySizes(3)
	o := &options{seed: 3, measure: 150 * time.Millisecond, trace: traced, workDir: t.TempDir()}
	out, err := runWorkload(w, &sz, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := finite(out.values); err != nil {
		t.Fatal(err)
	}
	catalog := endToEnd
	if traced {
		catalog = perLayer()
	}
	ms, err := fill(catalog, out.values)
	if err != nil {
		t.Fatal(err)
	}
	if !traced {
		for _, m := range endToEnd {
			if ms[m.Name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", m.Name, ms[m.Name].Value)
			}
		}
		return
	}
	for _, name := range append(layerCalls[w.name], "bench.op_ms", "go.alloc_mb") {
		for _, p := range procsSuffixes {
			if ms[name+"."+p].Value <= 0 {
				t.Errorf("%s.%s = %v, want > 0", name, p, ms[name+"."+p].Value)
			}
		}
	}
	if len(out.phases) != 2 || len(out.phases[0].Spans) == 0 || out.phases[1].Procs != 1 {
		t.Errorf("traced phases %d, want pN then p1 with spans", len(out.phases))
	}
}
