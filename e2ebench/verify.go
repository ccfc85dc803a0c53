package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/goleak"
	"repro/internal/patterns"
	"repro/internal/stack"
)

// goleak-verify: one caller runs goleak.Find in a closed loop in a process
// holding a few thousand parked goroutines, taken as an IgnoreCurrent
// baseline, plus real leaks planted from internal/patterns. Find runs
// with MaxRetries(0): with leaks present the default retry schedule
// sleeps about half a second per call, which would swamp the capture and
// filter cost this workload exists to measure. The workload must run with
// no other workload's goroutines alive.

type verifyConfig struct {
	parked       int
	leakPatterns int
	leakSize     int // goroutines each planted pattern leaks
	setupReps    int
}

func verifyScale(tiny bool) verifyConfig {
	c := verifyConfig{parked: 3000, leakPatterns: 3, leakSize: 25, setupReps: 15}
	if tiny {
		c.parked, c.leakSize, c.setupReps = 60, 3, 2
	}
	return c
}

// leakable are the patterns planted: each Trigger leaves exactly n
// goroutines blocked until Release.
var leakable = []*patterns.Pattern{
	patterns.PrematureReturn, patterns.NCast, patterns.DoubleSend,
	patterns.MissingReceiver, patterns.UnclosedRange, patterns.ContractDone,
}

type verifyWorkload struct {
	cfg   verifyConfig
	p     params
	plant []plantSpec
}

type plantSpec struct {
	pat *patterns.Pattern
	n   int
}

func newVerify(p params) (workload, error) {
	cfg := verifyScale(p.tiny)
	r := rand.New(rand.NewSource(p.seed))
	w := &verifyWorkload{cfg: cfg, p: p}
	for _, i := range r.Perm(len(leakable))[:cfg.leakPatterns] {
		w.plant = append(w.plant, plantSpec{leakable[i], cfg.leakSize})
	}
	return w, nil
}

// parked is the benign population: goroutines blocked in three shapes
// (channel receive, select, WaitGroup wait) until stop.
type parked struct {
	stop chan struct{}
	hold sync.WaitGroup // parkWait goroutines wait on it
	done sync.WaitGroup
}

func parkRecv(p *parked) { defer p.done.Done(); <-p.stop }
func parkWait(p *parked) { defer p.done.Done(); p.hold.Wait() }
func parkSelect(p *parked) {
	defer p.done.Done()
	never := make(chan int)
	select {
	case <-p.stop:
	case <-never:
	}
}

func startParked(n int) *parked {
	p := &parked{stop: make(chan struct{})}
	p.hold.Add(1)
	for i := 0; i < n; i++ {
		p.done.Add(1)
		switch i % 3 {
		case 0:
			go parkRecv(p)
		case 1:
			go parkSelect(p)
		default:
			go parkWait(p)
		}
	}
	return p
}

func (p *parked) release() {
	close(p.stop)
	p.hold.Done()
	p.done.Wait()
}

// settledLeaks waits until the goroutines outside base are exactly the
// want planted ones, all created by internal/patterns and blocked, and
// returns their ids: the ground truth each Find must reproduce.
func settledLeaks(base map[int64]bool, want int) (map[int64]bool, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		gs, err := stack.Current()
		if err != nil {
			return nil, err
		}
		ids := map[int64]bool{}
		settled := true
		for _, g := range gs {
			if base[g.ID] {
				continue
			}
			if !strings.HasPrefix(g.CreatedBy.Function, "repro/internal/patterns.") {
				settled = false // a helper that has not exited yet
				continue
			}
			if g.State == "running" || g.State == "runnable" {
				settled = false
			}
			ids[g.ID] = true
		}
		if settled && len(ids) == want {
			return ids, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("planted leaks did not settle: %d of %d goroutines", len(ids), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkFind is the verification gate: Find returned exactly the planted
// goroutines.
func checkFind(leaks []*goleak.Leak, truth map[int64]bool) error {
	if len(leaks) != len(truth) {
		return fmt.Errorf("Find returned %d leaks, %d planted", len(leaks), len(truth))
	}
	for _, l := range leaks {
		if !truth[l.Goroutine.ID] {
			return fmt.Errorf("Find returned unplanted goroutine %d (%s)", l.Goroutine.ID, l.CodeContext().Function)
		}
	}
	return nil
}

func (w *verifyWorkload) run(ctx context.Context, ph phase) (*phaseResult, error) {
	cfg := w.cfg
	res := &phaseResult{layers: map[string]float64{}}
	pop := startParked(cfg.parked)
	defer pop.release()

	var setupS samples
	var ignore goleak.Option
	for i := 0; i < cfg.setupReps; i++ {
		start := time.Now()
		ignore = goleak.IgnoreCurrent()
		setupS.add(time.Since(start).Seconds())
	}
	gs, err := stack.Current()
	if err != nil {
		return nil, err
	}
	base := map[int64]bool{}
	for _, g := range gs {
		base[g.ID] = true
	}

	want := 0
	var planted []*patterns.Instance
	for _, ps := range w.plant {
		planted = append(planted, ps.pat.Trigger(ps.n))
		want += ps.n
	}
	defer func() {
		for _, in := range planted {
			in.Release()
		}
	}()
	truth, err := settledLeaks(base, want)
	if err != nil {
		return nil, err
	}
	if w.p.sabotage == "release-leak" {
		planted[0].Release() // the gate must notice the missing leaks
		planted = planted[1:]
	}

	var verifyMS timedSamples
	var captureMS, filterMS samples
	var calls int64
	resetPeakRSS()
	// Sampled inline: a sampling goroutine would be a goroutine Find
	// does not expect.
	sl := newSlicer(slicePeriod(ph.dur), func() int64 { return calls })
	start := time.Now()
	for time.Since(start) < ph.dur {
		var capture time.Duration
		if ph.tr != nil {
			c0 := time.Now()
			if _, err := stack.Current(); err != nil {
				return nil, err
			}
			capture = time.Since(c0)
			captureMS.addDur(capture)
		}
		t0 := time.Now()
		leaks, err := goleak.Find(ignore, goleak.MaxRetries(0))
		t1 := time.Now()
		calls++
		sl.sample()
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		verifyMS.add(t0, t1.Sub(t0))
		if ph.tr != nil {
			filterMS.addDur(t1.Sub(t0) - capture)
			ph.tr.record(0, calls, "verify", t0, t1)
		}
		if err := checkFind(leaks, truth); err != nil {
			res.gate(err)
			break
		}
	}
	end := time.Now()
	rate, cpuPerFind, rssMB := sl.medians()
	verifyMean, verifyTail := verifyMS.sliced(start, end)
	if calls == 0 {
		return nil, fmt.Errorf("goleak-verify: no Find call completed")
	}

	res.e2e = map[string]float64{
		// The mean, not the median, of the captures: one capture takes
		// either of two typical times, as one Find does, and the median
		// of a run's captures jumps between them.
		"setup_s":         setupS.mean(),
		"dumps_per_s":     rate,
		"cpu_ms_per_dump": cpuPerFind,
		"peak_rss_mb":     rssMB,
		"result_mean_ms":  verifyMean,
		"result_tail_ms":  verifyTail,
	}
	res.headline = verifyMean
	res.rows = []row{
		{"setup_s", setupS.mean(), "s", len(setupS)},
		{"dumps_per_s", rate, "1/s", sl.slices()},
		{"cpu_ms_per_dump", cpuPerFind, "ms", sl.slices()},
		{"peak_rss_mb", rssMB, "MB", sl.slices()},
		{"result_mean_ms", verifyMean, "ms", len(verifyMS.all)},
		{"result_tail_ms", verifyTail, "ms", len(verifyMS.all)},
		{"verify_p50_ms", verifyMS.all.median(), "ms", len(verifyMS.all)},
		{"verify_p90_ms", verifyMS.all.pct(90), "ms", len(verifyMS.all)},
		{"verify_p99_ms", verifyMS.all.pct(99), "ms", len(verifyMS.all)},
		{"verify_max_ms", verifyMS.all.max(), "ms", len(verifyMS.all)},
		{"planted_leaks", float64(len(truth)), "count", 1},
	}
	if ph.tr != nil {
		L := res.layers
		res.spans = ph.tr.snapshot()
		L["goleak.capture_ms_p50"] = captureMS.median()
		L["goleak.filter_ms_p50"] = filterMS.median()
		if all, err := stack.Current(); err == nil {
			L["goleak.goroutines"] = float64(len(all))
		}
		L["goleak.allocs_per_verify"] = findAllocs(ignore)
		// The scanner's baseline on this workload's own input: the
		// process's debug=2 goroutine dump.
		buf := make([]byte, 8<<20)
		dump := buf[:runtime.Stack(buf, true)]
		L["scan.ms_per_dump"], L["scan.mb_per_s"], L["scan.allocs_per_dump"] = scanReplay([][]byte{dump}, 300*time.Millisecond)
	}
	return res, nil
}

// findAllocs is the allocation count of one Find, averaged over a short
// loop of Finds alone.
func findAllocs(ignore goleak.Option) float64 {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		goleak.Find(ignore, goleak.MaxRetries(0))
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}
