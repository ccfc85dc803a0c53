package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/goleak"
	"repro/internal/report"
	"repro/internal/stack"
	"repro/leakprof"
)

// smoke runs one workload at test scale and returns its result line and
// report.
func smoke(t *testing.T, name string, p params, dur time.Duration, traced bool) (*output, string) {
	t.Helper()
	p.tiny = true
	var report bytes.Buffer
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := bench(context.Background(), name, p, dur, traced, dir, &report)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, report.String())
	}
	return out, report.String()
}

// checkOutput asserts a passing run reports every metric of its mode.
func checkOutput(t *testing.T, name string, out *output, report string, traced bool) {
	t.Helper()
	if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, out.Correct, out.Attempted, out.Failed, report)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(out.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := out.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, v, m.unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
		}
	}
}

func TestSmokePushScan(t *testing.T) {
	for _, traced := range []bool{false, true} {
		out, report := smoke(t, "push-scan", params{seed: 3}, 2*time.Second, traced)
		checkOutput(t, "push-scan", out, report, traced)
		if traced && out.Metrics["ingest.handle_ms_p50"].Value <= 0 {
			t.Errorf("traced push-scan recorded no ingest handler time\n%s", report)
		}
	}
}

func TestSmokePullChurn(t *testing.T) {
	for _, traced := range []bool{false, true} {
		out, report := smoke(t, "pull-churn", params{seed: 3}, 1500*time.Millisecond, traced)
		checkOutput(t, "pull-churn", out, report, traced)
		if traced && out.Metrics["shard.sweep_ms_p50"].Value <= 0 {
			t.Errorf("traced pull-churn recorded no shard sweep time\n%s", report)
		}
	}
}

// goleak-verify must run with no other workload's goroutines alive, so
// its smoke runs in a child process of the test binary.
func TestSmokeGoleakVerify(t *testing.T) {
	for _, mode := range []string{"untraced", "traced", "release-leak"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestGoleakVerifyChild$", "-test.v")
		cmd.Env = append(os.Environ(), "E2EBENCH_CHILD="+mode)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", mode, err, out)
		}
		if !strings.Contains(string(out), "CHILD OK") {
			t.Fatalf("%s child did not finish\n%s", mode, out)
		}
	}
}

func TestGoleakVerifyChild(t *testing.T) {
	mode := os.Getenv("E2EBENCH_CHILD")
	if mode == "" {
		t.Skip("run by TestSmokeGoleakVerify in a child process")
	}
	p := params{seed: 5}
	if mode == "release-leak" {
		p.sabotage = mode
	}
	out, report := smoke(t, "goleak-verify", p, time.Second, mode == "traced")
	if mode == "release-leak" {
		// The gate fires when a planted leak is removed.
		if out.Correct || !strings.Contains(report, "GATE FAILED: Find returned") {
			t.Fatalf("removed leak went unnoticed: correct=%v\n%s", out.Correct, report)
		}
	} else {
		checkOutput(t, "goleak-verify", out, report, mode == "traced")
	}
	t.Log("CHILD OK")
}

// A report sink that drops every sweep files no alert: the alert gate
// must fail the run on both workloads that alert.
func TestAlertGateFiresWhenSinkDropsAlerts(t *testing.T) {
	for _, name := range []string{"push-scan", "pull-churn"} {
		out, report := smoke(t, name, params{seed: 4, sabotage: "drop-alerts"}, time.Second, false)
		if out.Correct || !strings.Contains(report, "was never alerted") {
			t.Errorf("%s: dropped alerts went unnoticed: correct=%v\n%s", name, out.Correct, report)
		}
	}
}

func TestCheckAlerts(t *testing.T) {
	truth := newPlantedSet()
	truth.leaks["a"], truth.leaks["b"], truth.hard["h"] = true, true, true
	found := map[string]bool{"a": true, "b": true}
	if err := checkAlerts(truth, []string{"a", "b"}, found); err != nil {
		t.Fatalf("exact alerts rejected: %v", err)
	}
	cases := map[string]struct {
		alerted []string
		found   map[string]bool
	}{
		"missing leak":  {[]string{"a"}, found},
		"extra alert":   {[]string{"a", "b", "x"}, found},
		"hard negative": {[]string{"a", "b"}, map[string]bool{"a": true, "b": true, "h": true}},
		"unplanted":     {[]string{"a", "b"}, map[string]bool{"a": true, "z": true}},
	}
	for name, c := range cases {
		if err := checkAlerts(truth, c.alerted, c.found); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

func TestCheckDrain(t *testing.T) {
	ok := leakprof.IngestStats{Admitted: 10, Folded: 10}
	if err := checkDrain(ok, 10, 10); err != nil {
		t.Fatalf("clean drain rejected: %v", err)
	}
	if checkDrain(leakprof.IngestStats{Admitted: 10, Folded: 9}, 9, 10) == nil {
		t.Error("unfolded dump passed")
	}
	if checkDrain(ok, 8, 10) == nil {
		t.Error("dump missing from closed windows passed")
	}
	if checkDrain(ok, 10, 11) == nil {
		t.Error("accepted dump the server never admitted passed")
	}
}

func TestCheckReopenDetectsLostBug(t *testing.T) {
	dir := t.TempDir()
	if err := seedJournal(dir, 20, 3); err != nil {
		t.Fatal(err)
	}
	store, err := leakprof.OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	bugs := store.BugDB().All()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkReopen(dir, append([]report.Bug(nil), bugs...)); err != nil {
		t.Fatalf("faithful journal rejected: %v", err)
	}
	changed := append([]report.Bug(nil), bugs...)
	changed[0].Sightings++
	if checkReopen(dir, changed) == nil {
		t.Error("changed bug passed")
	}
	if checkReopen(dir, append(bugs, report.Bug{Key: "lost"})) == nil {
		t.Error("bug missing from the journal passed")
	}
}

func TestParityGateDetectsDifferentMerge(t *testing.T) {
	wl, err := newPull(params{seed: 2, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*pullWorkload)
	var dumps []leakprof.Dump
	for i, ep := range w.eps {
		dumps = append(dumps, leakprof.Dump{Service: ep.Service, Instance: ep.Instance,
			Body: bytes.NewReader(w.bodies[0][i/w.cfg.instances])})
	}
	sw, err := leakprof.New(leakprof.WithThreshold(w.cfg.threshold)).Sweep(context.Background(), leakprof.Dumps(dumps...))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkParity(context.Background(), sw); err != nil {
		t.Fatalf("identical sweep rejected: %v", err)
	}
	if len(sw.Findings) == 0 {
		t.Fatal("tiny pull input plants no leak")
	}
	sw.Findings[0].TotalBlocked++
	if w.checkParity(context.Background(), sw) == nil {
		t.Error("changed finding passed")
	}
}

func TestCheckFind(t *testing.T) {
	g := func(id int64) *goleak.Leak { return &goleak.Leak{Goroutine: &stack.Goroutine{ID: id}} }
	truth := map[int64]bool{1: true, 2: true}
	if err := checkFind([]*goleak.Leak{g(1), g(2)}, truth); err != nil {
		t.Fatalf("exact leaks rejected: %v", err)
	}
	if checkFind([]*goleak.Leak{g(1)}, truth) == nil {
		t.Error("missing leak passed")
	}
	if checkFind([]*goleak.Leak{g(1), g(3)}, truth) == nil {
		t.Error("unplanted leak passed")
	}
}

// Two seeds must give two different sets of inputs.
func TestSeedsChangeInputs(t *testing.T) {
	p1, _ := newPush(params{seed: 1, tiny: true})
	p2, _ := newPush(params{seed: 2, tiny: true})
	if reflect.DeepEqual(p1.(*pushWorkload).bodies, p2.(*pushWorkload).bodies) {
		t.Error("push-scan bodies do not depend on the seed")
	}
	q1, _ := newPull(params{seed: 1, tiny: true})
	q2, _ := newPull(params{seed: 2, tiny: true})
	if reflect.DeepEqual(q1.(*pullWorkload).bodies, q2.(*pullWorkload).bodies) {
		t.Error("pull-churn bodies do not depend on the seed")
	}
	v1, _ := newVerify(params{seed: 1})
	v2, _ := newVerify(params{seed: 2})
	if reflect.DeepEqual(v1.(*verifyWorkload).plant, v2.(*verifyWorkload).plant) {
		t.Error("goleak-verify plants do not depend on the seed")
	}
	again, _ := newPush(params{seed: 1, tiny: true})
	if !reflect.DeepEqual(p1.(*pushWorkload).bodies, again.(*pushWorkload).bodies) {
		t.Error("push-scan bodies differ for one seed")
	}
}

// BENCHMARK.json at the repository root lists exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "push-scan", "--trace", "2"},
		{"--workload", "push-scan", "--seconds", "0"},
	} {
		if code := realMain(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected arguments printed a result: %q", out.String())
	}
}
