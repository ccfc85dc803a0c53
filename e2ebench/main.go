// Command e2ebench is the repository's end-to-end benchmark. It drives the
// leak-detection system from outside, through its public API, on one of
// three workloads, checks the system's outputs against the planted ground
// truth, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload push-scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the run measures half its time untraced and half traced,
// reports the per-layer metrics from the traced half, and the tracing
// overhead as the difference of the two halves' mean result latencies. See
// WORKLOADS.md for the workloads, their layers and the host the bounds
// were set on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever the
// workload; each workload maps them onto its own operations (see
// WORKLOADS.md). The workload-specific names of the same figures
// (admit_p50_ms, sweep_p90_ms, verify_p99_ms, ...) are printed in the
// human-readable table above the JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"dumps_per_s", "1/s"},
	{"cpu_ms_per_dump", "ms"},
	{"peak_rss_mb", "MB"},
	{"result_mean_ms", "ms"},
	{"result_tail_ms", "ms"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// never calls reads 0 on that workload: the layer did no work there.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"serve.ms_p50", "ms"},
	{"scan.ms_per_dump", "ms"},
	{"scan.mb_per_s", "MB/s"},
	{"scan.allocs_per_dump", "count"},
	{"ingest.handle_ms_p50", "ms"},
	{"ingest.handle_ms_p99", "ms"},
	{"ingest.body_wait_ms_p50", "ms"},
	{"net.overhead_ms_p50", "ms"},
	{"ingest.queue_len_max", "count"},
	{"fold.wait_ms_p50", "ms"},
	{"fold.wait_ms_p99", "ms"},
	{"window.close_ms_p50", "ms"},
	{"window.close_ms_p90", "ms"},
	{"window.pause_ms_mean", "ms"},
	{"collect.fetch_wait_ms_p50", "ms"},
	{"collect.consume_ms_p50", "ms"},
	{"shard.sweep_ms_p50", "ms"},
	{"wire.post_ms_p50", "ms"},
	{"wire.report_kb_p50", "KB"},
	{"inbox.handle_ms_p50", "ms"},
	{"shard.skew_ms_p50", "ms"},
	{"merge.ms_p50", "ms"},
	{"sink.report_ms_p50", "ms"},
	{"sink.trend_ms_p50", "ms"},
	{"journal.record_ms_p50", "ms"},
	{"journal.record_ms_p90", "ms"},
	{"journal.kb_per_sweep", "KB"},
	{"journal.compactions", "count"},
	{"state.keys", "count"},
	{"setup.recover_ms", "ms"},
	{"goleak.capture_ms_p50", "ms"},
	{"goleak.filter_ms_p50", "ms"},
	{"goleak.allocs_per_verify", "count"},
	{"goleak.goroutines", "count"},
	{"result.unattributed_pct", "%"},
	{"sweep.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// params selects a workload's inputs.
type params struct {
	seed int64
	// tiny shrinks every input to smoke-test size.
	tiny bool
	// sabotage, when set, breaks one output on purpose so the tests can
	// show the matching correctness gate fires. Only tests set it.
	sabotage string
}

// phase is one measured interval of a run.
type phase struct {
	dur time.Duration
	tr  *tracer // nil: untraced
	dir string  // scratch directory inside the checkout
}

// row is one human-readable metric line, under the workload's own name
// for it, with the sample count behind it.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// phaseResult is what one phase measured and checked.
type phaseResult struct {
	attempted, failed int64
	gates             []error
	e2e               map[string]float64
	rows              []row
	headline          float64 // result_mean_ms, for the tracing overhead
	layers            map[string]float64
	spans             []span
}

func (r *phaseResult) gate(err error) {
	if err != nil {
		r.gates = append(r.gates, err)
	}
}

type workload interface {
	run(ctx context.Context, ph phase) (*phaseResult, error)
}

var workloads = map[string]func(params) (workload, error){
	"push-scan":     newPush,
	"pull-churn":    newPull,
	"goleak-verify": newVerify,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs one workload for seconds and returns its result line; the
// human-readable report goes to w.
func bench(ctx context.Context, name string, p params, total time.Duration, traced bool, dir string, w io.Writer) (*output, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	wl, err := mk(p)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", name, err)
	}
	runPhase := func(tag string, ph phase) (*phaseResult, error) {
		ph.dir = filepath.Join(dir, tag)
		if err := os.MkdirAll(ph.dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ph.dir)
		return wl.run(ctx, ph)
	}
	out := &output{Metrics: map[string]metricValue{}}
	var phases []*phaseResult
	if !traced {
		r, err := runPhase("untraced", phase{dur: total})
		if err != nil {
			return nil, err
		}
		phases = append(phases, r)
		printRows(w, name, r.rows)
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{r.e2e[m.name], m.unit}
		}
	} else {
		a, err := runPhase("untraced", phase{dur: total / 2})
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		b, err := runPhase("traced", phase{dur: total / 2, tr: tr})
		if err != nil {
			return nil, err
		}
		phases = append(phases, a, b)
		printRows(w, name+" (untraced half)", a.rows)
		printRows(w, name+" (traced half)", b.rows)
		printSelfTimes(w, b.spans)
		if a.headline > 0 {
			b.layers["trace.overhead_pct"] = 100 * (b.headline - a.headline) / a.headline
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{b.layers[m.name], m.unit}
		}
		spanFile := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.jsonl", name, p.seed))
		if err := writeSpans(spanFile, b.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "# %d spans written to %s (%d dropped at the cap)\n", len(b.spans), spanFile, tr.droppedSpans())
	}
	out.Correct = true
	for _, r := range phases {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, g := range r.gates {
			out.Correct = false
			fmt.Fprintf(w, "GATE FAILED: %v\n", g)
		}
	}
	if out.Attempted > 0 {
		fmt.Fprintf(w, "  %-26s %14.6f %-6s\n", "failed_frac", float64(out.Failed)/float64(out.Attempted), "ratio")
	}
	return out, nil
}

func printRows(w io.Writer, title string, rows []row) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %14.6f %-6s n=%d\n", r.name, r.value, r.unit, r.n)
	}
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: push-scan, pull-churn or goleak-verify")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "e2ebench: --workload must be one of %v\n", names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// All scratch state lives under .bench_build in the working directory
	// (the checkout root), never in the system temp directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	total := time.Duration(*seconds * float64(time.Second))
	out, err := bench(context.Background(), *name, params{seed: *seed}, total, *trace == 1, dir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
