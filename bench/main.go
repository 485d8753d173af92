// Command bench is the MFPA end-to-end benchmark. It runs the
// operator's, the online scorer's and the researcher's paths on
// simulated fleets, checks their outputs, and prints every metric with
// its unit; a traced run adds the per-layer breakdown. See README.md.
//
//	go run . -workload serve_steady -seed 1 -seconds 20 -trace 0
//	go run . -seed 1            # every workload, each in a child process
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every run.
type environment struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Revision   string         `json:"vcs_revision"`
	Modified   bool           `json:"vcs_modified"`
	Sizes      map[string]int `json:"sizes,omitempty"`
}

func main() {
	names := make([]string, len(workloads))
	var usage strings.Builder
	for i, w := range workloads {
		names[i] = w.name
		fmt.Fprintf(&usage, "\n  %s: %s", w.name, w.why)
	}
	workload := flag.String("workload", "all", "workload to run, or all to run each in its own child process:"+usage.String())
	seed := flag.Int64("seed", 1, "seed of the simulated fleets and the corruption campaign")
	seconds := flag.Int("seconds", 20, "seconds each workload measures")
	trace := flag.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics and writes its spans")
	spans := flag.String("spans", ".bench_build", "directory a traced run writes its span file to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1 and -trace 0 or 1")
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if *workload == "all" {
		os.Exit(runAll(os.Stdout, names, os.Args[1:]))
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	os.Exit(runOne(os.Stdout, w, &o, *seconds, *spans))
}

// runOne runs one workload in this process and returns the exit code.
func runOne(stdout io.Writer, w workload, o *options, seconds int, spanDir string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		printResult(stdout, result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	sz := fullSizes(o.seed)
	out, err := runWorkload(w, &sz, o)
	if err != nil {
		return fail(err)
	}
	env := newEnvironment(w.name, o, seconds)
	env.Sizes = out.inst.sizes()
	catalog := endToEnd
	if o.trace {
		catalog = perLayer()
	}
	res, err := report(stdout, w.name, env, catalog, out)
	if err != nil {
		return fail(err)
	}
	if o.trace {
		path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := writeSpans(path, env, out.phases); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s spans written to %s\n", w.name, path)
	}
	printResult(stdout, res)
	return 0
}

// report prints the environment and every catalog metric, one per line,
// and returns the result line.
func report(stdout io.Writer, name string, env environment, catalog []metricSpec, out *outcome) (result, error) {
	envLine, err := json.Marshal(env)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if err := finite(out.values); err != nil {
		return result{}, err
	}
	ms, err := fill(catalog, out.values)
	if err != nil {
		return result{}, err
	}
	for _, spec := range catalog {
		n := ""
		if c, ok := out.samples[spec.Name]; ok {
			n = "n=" + strconv.Itoa(c)
		}
		bound := ""
		if spec.Bound > 0 {
			bound = fmt.Sprintf(" (bound %g)", spec.Bound)
		}
		fmt.Fprintf(stdout, "%s %-40s %14.6g %-6s %-6s %s%s\n", name, spec.Name, ms[spec.Name].Value, spec.Unit, n, spec.Why, bound)
	}
	if q := out.opQuartiles; q != [3]float64{} {
		fmt.Fprintf(stdout, "%s op_ms quartiles %.6g %.6g %.6g n=%d\n", name, q[0], q[1], q[2], out.ops)
	}
	if s := out.inst.summary(); s != "" {
		fmt.Fprintf(stdout, "%s outputs %s\n", name, s)
	}
	return result{Correct: true, Attempted: out.ops, Failed: 0, Metrics: ms}, nil
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		b = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func newEnvironment(name string, o *options, seconds int) environment {
	env := environment{
		Workload: name, Seed: o.seed, Seconds: seconds, Trace: o.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Revision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeSpans stores a traced run's spans with its environment.
func writeSpans(path string, env environment, phases []phase) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Env    environment `json:"env"`
		Phases []phase     `json:"phases"`
	}{env, phases})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runAll runs every workload, one after another, each in a child
// process of this binary with the same flags, relays the children's
// output, and ends with one result line whose metrics are prefixed by
// workload name.
func runAll(stdout io.Writer, names []string, args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	code := 0
	for _, name := range names {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", name)...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64*1024), 16<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		scanErr := sc.Err()
		if scanErr != nil {
			_, _ = io.Copy(io.Discard, pipe) // let the child finish writing
		}
		waitErr := cmd.Wait()
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil || scanErr != nil || waitErr != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s failed: %v\n", name, firstErr(waitErr, scanErr, err))
			r = result{Correct: false, Attempted: 1, Failed: 1}
			code = 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	printResult(stdout, total)
	return code
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
