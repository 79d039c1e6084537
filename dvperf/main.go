// Command dvperf is the repository's benchmark. It runs one seeded
// workload against the packages under internal/, checks every output it
// produces, and prints one JSON result line as the last line of standard
// output. Run it from the root of a checkout:
//
//	bash dvperf/run.sh --workload batch-dv --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures and prints the end-to-end metrics; --trace 1 repeats
// the workload with spans recorded around every call into a layer and
// prints the per-layer metrics instead, plus the tracing overhead. The
// workloads, the metrics and what each per-layer metric should move are
// described in DESIGN.md next to this file. The exit code is 0 only when
// every output was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Exit codes.
const (
	exitOK        = 0
	exitIncorrect = 1 // a result was printed, but some output was wrong
	exitError     = 2 // bad arguments or the run could not complete
)

// buildDir is where the benchmark keeps scratch files and reports,
// relative to the checkout root it runs from.
const buildDir = ".bench_build"

type env struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory, removed at exit
	log     io.Writer
}

// phase is one pass of a workload: its set-ups and its measured loop.
type phase struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64 // per-layer values known from the loop
	report            map[string]any     // details printed to the side report only
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
}

// fail counts one incorrect or failed operation and says why on stderr.
func (p *phase) fail(e *env, format string, args ...any) {
	p.failed++
	fmt.Fprintf(e.log, "dvperf: FAILED: "+format+"\n", args...)
}

// runner is a workload with its inputs generated. pass runs its set-ups and
// measured loop once; tr is nil in the untraced pass. extras, called only in
// traced runs after the traced pass, adds per-layer values that need extra
// runs (Pregel+ baselines, the ΔV★ message count).
type runner interface {
	pass(e *env, tr *tracer) (*phase, error)
	extras(e *env, tr *tracer, traced *phase) error
}

// workloads generate their inputs from e.seed, outside any timing.
var workloads = map[string]func(e *env) (runner, error){
	"batch-dv":     prepareBatch,
	"serve-stream": prepareServe,
	"shard-mesh":   prepareShard,
}

// endToEnd and perLayer fix the metric names and units the result line
// carries; they match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"msgs_per_job", "count"},
	{"superstep_s", "s"},
	{"wire_bytes_per_superstep", "B"},
	{"visible_s_p50", "s"},
	{"visible_s_p90", "s"},
	{"read_s_p50", "s"},
	{"peak_rss_bytes", "B"},
}

var layers = []string{"graph", "core", "vm", "pregel", "transport", "algorithms", "serve"}

var perLayer = []struct{ name, unit string }{
	{"graph.load_s", "s"},
	{"graph.bytes_per_arc", "B"},
	{"graph.apply_delta_s_p50", "s"},
	{"core.compile_s", "s"},
	{"core.msg_reduction_pagerank", "ratio"},
	{"vm.run_s.pagerank", "s"},
	{"vm.run_s.sssp", "s"},
	{"vm.run_s.hits", "s"},
	{"vm.run_s.cc", "s"},
	{"vm.supersteps.pagerank", "count"},
	{"vm.supersteps.sssp", "count"},
	{"vm.supersteps.hits", "count"},
	{"vm.supersteps.cc", "count"},
	{"vm.vs_pregel.sssp", "ratio"},
	{"vm.vs_pregel.cc", "ratio"},
	{"vm.delta_s_p50", "s"},
	{"vm.delta_supersteps_p50", "count"},
	{"vm.delta_msgs_p50", "count"},
	{"vm.scratch_s_p50", "s"},
	{"pregel.step_s_p50", "s"},
	{"pregel.combine_ratio", "ratio"},
	{"pregel.cross_worker_ratio", "ratio"},
	{"pregel.active_per_step", "count"},
	{"pregel.chain_bytes_per_batch", "B"},
	{"transport.dial_s", "s"},
	{"transport.frames_per_superstep", "count"},
	{"transport.bytes_per_superstep", "B"},
	{"transport.overhead_ratio", "ratio"},
	{"algorithms.run_s.pagerank", "s"},
	{"algorithms.run_s.sssp", "s"},
	{"algorithms.run_s.cc", "s"},
	{"serve.mutate_s_p50", "s"},
	{"serve.flush_s_p50.repaired", "s"},
	{"serve.flush_s_p50.fallback", "s"},
	{"serve.repaired_ratio", "ratio"},
	{"serve.self_s_p50", "s"},
	{"serve.read_s_p99.during_flush", "s"},
	{"graph.self_s", "s"},
	{"core.self_s", "s"},
	{"vm.self_s", "s"},
	{"pregel.self_s", "s"},
	{"transport.self_s", "s"},
	{"algorithms.self_s", "s"},
	{"serve.self_s", "s"},
	{"trace.overhead.jobs_per_s", "ratio"},
	{"trace.overhead.superstep_s", "ratio"},
	{"trace.overhead.visible_s_p50", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: batch-dv, serve-stream or shard-mesh")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 20, "length of the measured loop, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	prepare, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dvperf: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		return exitError
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "dvperf: %v\n", err)
		return exitError
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "dvperf: %v\n", err)
		return exitError
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), dir: dir, log: stderr}
	res, err := runWorkload(e, *name, prepare, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "dvperf: %s: %v\n", *name, err)
		return exitError
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dvperf: %v\n", err)
		return exitError
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return exitIncorrect
	}
	return exitOK
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runWorkload prepares the inputs, runs the untraced pass and, for a traced
// run, the traced pass and the extras; then it writes the side report and
// builds the result line.
func runWorkload(e *env, name string, prepare func(e *env) (runner, error), traced bool) (*result, error) {
	r, err := prepare(e)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	plain, err := r.pass(e, nil)
	if err != nil {
		return nil, err
	}
	total := []*phase{plain}
	report := map[string]any{"workload": name, "seed": e.seed, "end_to_end": plain.e2e, "details": plain.report}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{plain.e2e[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		tp, err := r.pass(e, tr)
		if err != nil {
			return nil, err
		}
		if err := r.extras(e, tr, tp); err != nil {
			return nil, err
		}
		total = append(total, tp)
		self := tr.selfTimes()
		for _, l := range layers {
			tp.layers[l+".self_s"] = self[l]
		}
		overhead := map[string]float64{}
		for _, m := range endToEnd {
			overhead[m.name] = ratio(tp.e2e[m.name], plain.e2e[m.name]) - 1
		}
		for _, m := range []string{"jobs_per_s", "superstep_s", "visible_s_p50"} {
			tp.layers["trace.overhead."+m] = overhead[m]
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{tp.layers[m.name], m.unit}
		}
		spans := filepath.Join(buildDir, fmt.Sprintf("dvperf-%s-seed%d-spans.json", name, e.seed))
		if err := tr.write(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		report["traced_end_to_end"] = tp.e2e
		report["tracing_overhead"] = overhead
		report["per_layer"] = tp.layers
		report["traced_details"] = tp.report
		report["spans_file"] = spans
		report["self_s"] = self
		fmt.Fprintf(e.log, "dvperf: spans written to %s\n", spans)
	}
	for _, p := range total {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report["attempted"], report["failed"] = res.Attempted, res.Failed
	path := filepath.Join(buildDir, fmt.Sprintf("dvperf-%s-seed%d-trace%v.json", name, e.seed, traced))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("writing report: %w", err)
	}
	fmt.Fprintf(e.log, "dvperf: report written to %s\n%s\n", path, data)
	return res, nil
}
