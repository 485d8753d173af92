package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestResultRoundTrip: the result line survives a JSON round trip with
// every metric of both catalogs, and every name is a valid metric name.
func TestResultRoundTrip(t *testing.T) {
	for _, catalog := range [][]metricSpec{endToEnd, perLayer()} {
		values := make(map[string]float64)
		for i, m := range catalog {
			if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("invalid metric name %q", m.Name)
			}
			values[m.Name] = 1.0/3 + float64(i)
		}
		ms, err := fill(catalog, values)
		if err != nil {
			t.Fatal(err)
		}
		want := result{Correct: true, Attempted: 12, Failed: 0, Metrics: ms}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got result
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got, want)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 {
			t.Fatalf("result line has keys %v, want correct, attempted, failed, metrics", keys)
		}
	}
}

func TestFillRejectsUnknownMetric(t *testing.T) {
	if _, err := fill(endToEnd, map[string]float64{"no_such_metric": 1}); err == nil {
		t.Fatal("fill accepted a metric outside the catalog")
	}
	ms, err := fill(endToEnd, map[string]float64{"setup_s": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) || ms["setup_s"].Value != 2 || ms["op_ms_p50"].Unit != "ms" {
		t.Fatalf("fill = %v", ms)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which declares
// the benchmark's workloads, metrics and bounds, equal to the workloads
// and metric catalogs in this package.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalog %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
}
