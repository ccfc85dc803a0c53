package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/leakprof"
)

// pull-churn: the paper's daily LeakProf sweep, scaled down, as a closed
// loop of days. Two shard workers each pull their service-hash partition
// of the fleet over HTTP (one fetch at a time) and post their report to a
// token-armed coordinator inbox; the coordinator merges the reports into
// one Sweep through the report and trend sinks and a journal that tracks
// 100K keys. Dumps are small but carry many distinct blocked sites, and
// each day part of every service's sites fade and new ones appear.

type pullConfig struct {
	services, instances int
	// Each service has universe churn sites; a day's dump carries active
	// of them, a window that moves by churn sites a day and wraps, so the
	// inputs repeat with a period of universe/churn days.
	universe, active, churn int
	benign                  int
	leaky                   int // services with a planted leak
	leakSize, hardSize      int
	threshold               int
	seedKeys                int
	setupReps               int
	shards                  int
}

func pullScale(tiny bool) pullConfig {
	c := pullConfig{
		services: 32, instances: 2,
		universe: 480, active: 300, churn: 48,
		benign: 50,
		leaky:  10, leakSize: 160, hardSize: 95,
		threshold: 100,
		seedKeys:  100_000,
		setupReps: 5,
		shards:    2,
	}
	if tiny {
		c.services, c.instances, c.leaky = 4, 2, 1
		c.universe, c.active, c.churn = 40, 20, 10
		c.benign, c.seedKeys, c.setupReps = 20, 200, 2
	}
	return c
}

type pullWorkload struct {
	cfg      pullConfig
	p        params
	services []string
	eps      []leakprof.Endpoint // URLs filled in per phase
	bodies   [][][]byte          // [phase][service] plain debug=2 text
	truth    plantedSet
}

func (w *pullWorkload) periods() int { return len(w.bodies) }

func newPull(p params) (workload, error) {
	cfg := pullScale(p.tiny)
	r := rand.New(rand.NewSource(p.seed))
	w := &pullWorkload{cfg: cfg, p: p, truth: newPlantedSet()}
	for i := 0; i < cfg.services; i++ {
		w.services = append(w.services, fmt.Sprintf("svc%02d", i))
	}
	// Every service carries two near-threshold clusters: a leaky service a
	// planted leak and a hard negative, any other two hard negatives. Every
	// dump then holds about as many goroutines, wherever the seed puts the
	// leaks, so the shard workers' loads do not depend on the seed.
	leaks, hard := clusterSites(r, w.services, cfg.leaky, 2)
	// Each service's site universe: the leak shapes in rotation from a
	// seeded start, and a seeded source line each.
	universe := make([][]site, cfg.services)
	for i, svc := range w.services {
		if s, ok := leaks[svc]; ok {
			w.truth.leaks[s.key(svc)] = true
			hard[svc] = hard[svc][:1]
		}
		for _, s := range hard[svc] {
			w.truth.hard[s.key(svc)] = true
		}
		rot := r.Intn(len(clusterPatterns))
		for j := 0; j < cfg.universe; j++ {
			universe[i] = append(universe[i], site{
				pat:  clusterPatterns[(rot+j)%len(clusterPatterns)],
				file: fmt.Sprintf("services/%s/churn%03d.go", svc, j/100),
				line: 10 + j%100*7 + r.Intn(7),
			})
		}
	}
	periods := cfg.universe / cfg.churn
	w.bodies = make([][][]byte, periods)
	for ph := range w.bodies {
		w.bodies[ph] = make([][]byte, cfg.services)
		for i, svc := range w.services {
			b := newDumpBuilder()
			b.benign(r, cfg.benign)
			for j := 0; j < cfg.active; j++ {
				b.cluster(universe[i][(ph*cfg.churn+j)%cfg.universe], 1+r.Intn(2))
			}
			if s, ok := leaks[svc]; ok {
				b.cluster(s, cfg.leakSize)
			}
			for _, s := range hard[svc] {
				b.cluster(s, cfg.hardSize)
			}
			w.bodies[ph][i] = b.render()
		}
	}
	for i, svc := range w.services {
		for k := 0; k < cfg.instances; k++ {
			w.eps = append(w.eps, leakprof.Endpoint{Service: svc, Instance: fmt.Sprintf("%s-i%d", svc, k),
				URL: fmt.Sprintf("/p/%d/%d", i, k)})
		}
	}
	return w, nil
}

// fleetServer serves every instance's profile from one listener, with
// pre-rendered bytes for the current day: the generator must not spend
// CPU synthesising stacks inside the measurement.
type fleetServer struct {
	w   *pullWorkload
	day atomic.Int64
	tr  *tracer
}

func (f *fleetServer) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/p/"), "/")
	svc, err := strconv.Atoi(parts[0])
	if err != nil || svc < 0 || svc >= len(f.w.services) {
		http.NotFound(rw, r)
		return
	}
	day := f.day.Load()
	body := f.w.bodies[int(day)%f.w.periods()][svc]
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
	rw.Write(body)
	if f.tr != nil {
		f.tr.record(0, day, "serve", start, time.Now())
	}
}

// spanCtx carries a traced request's id and parent span into the
// RoundTrippers the system calls through.
type spanCtx struct{ req, parent int64 }

type spanKey struct{}

func withSpan(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{req, parent})
}

func spanOf(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// fetchTracer is the shard workers' RoundTripper in a traced run: it
// times each fetch's response headers and blocked body reads (fetch
// wait), and the time between body reads, when the worker scans and
// folds (consume).
type fetchTracer struct {
	inner http.RoundTripper
	tr    *tracer

	mu             sync.Mutex
	wait, consumed samples
}

func (t *fetchTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	sc := spanOf(req.Context())
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	headers := time.Now()
	t.tr.record(sc.parent, sc.req, "collect.fetch_wait", start, headers)
	if err != nil {
		return resp, err
	}
	resp.Body = &fetchBody{timedBody: timedBody{ReadCloser: resp.Body, tr: t.tr, parent: sc.parent, req: sc.req,
		name: "collect.fetch_wait"}, t: t, start: start, headers: headers}
	return resp, nil
}

type fetchBody struct {
	timedBody
	t              *fetchTracer
	start, headers time.Time
	once           sync.Once
}

func (b *fetchBody) Close() error {
	err := b.timedBody.Close()
	b.once.Do(func() {
		end := time.Now()
		b.t.mu.Lock()
		b.t.wait.addDur(b.headers.Sub(b.start) + b.waited)
		b.t.consumed.addDur(end.Sub(b.headers) - b.waited)
		b.t.mu.Unlock()
	})
	return err
}

// postTracer is the shard report poster's RoundTripper in a traced run:
// it tags the request with the wire.post span, so the inbox wrapper can
// link its span, and records the report's size.
type postTracer struct {
	inner http.RoundTripper

	mu  sync.Mutex
	kbs samples
}

func (t *postTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	sc := spanOf(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set("X-Bench-Req", strconv.FormatInt(sc.req, 10))
	req.Header.Set("X-Bench-Span", strconv.FormatInt(sc.parent, 10))
	t.mu.Lock()
	t.kbs.add(float64(req.ContentLength) / 1024)
	t.mu.Unlock()
	return t.inner.RoundTrip(req)
}

// tracedInbox times ShardInbox.ServeHTTP.
type tracedInbox struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedInbox) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.tr.record(parent, req, "inbox.handle", start, time.Now())
}

// pullSystem is the system under test for one phase: the coordinator
// pipeline on a recovered journal with the production sinks, its inbox
// behind an HTTP listener, and the shard worker pipelines.
type pullSystem struct {
	coord   *leakprof.Pipeline
	store   *leakprof.StateStore
	reports *leakprof.ReportSink
	inbox   *leakprof.ShardInbox
	srv     *http.Server
	url     string
	token   string
	workers []*leakprof.Pipeline
	parts   [][]leakprof.Endpoint
	fetchTr []*fetchTracer
	postTr  *postTracer
	post    *http.Client
	clients []*http.Transport

	day      *atomic.Int64
	segsOpen int
	tr       *tracer
	times    sweepTimes

	// Written by the day loop and its OnSweep hook, on one goroutine.
	dayRoot int64
	first   time.Time // the first SweepDone's start, in a traced run
	journal journalWatch
}

func (w *pullWorkload) startPull(dir, fleetURL string, day *atomic.Int64, tr *tracer) (*pullSystem, time.Duration, time.Duration, error) {
	cfg := w.cfg
	s := &pullSystem{day: day, tr: tr}
	clock := func() time.Time { return seedTime.Add(time.Duration(day.Load()) * 24 * time.Hour) }
	start := time.Now()
	s.coord = leakprof.New(
		leakprof.WithThreshold(cfg.threshold),
		leakprof.WithStateDir(dir),
		leakprof.WithTrendRetention(trendRetention),
		leakprof.WithClock(clock),
		leakprof.WithOnSweep(s.onSweep),
	)
	store, err := s.coord.State()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("recovering journal: %w", err)
	}
	recovered := time.Since(start)
	s.store = store
	s.segsOpen = store.SegmentCount()
	s.journal.segs = s.segsOpen
	var sinks []leakprof.Sink
	s.reports, sinks = sinkSet(store, tr, &s.times, w.p.sabotage)
	s.coord.AddSinks(sinks...)

	s.inbox = leakprof.NewShardInbox(cfg.shards)
	s.token = strconv.FormatInt(w.p.seed, 36) + "-token"
	s.inbox.Token = s.token
	var h http.Handler = s.inbox
	postRT := http.RoundTripper(&http.Transport{MaxConnsPerHost: cfg.shards})
	if tr != nil {
		h = &tracedInbox{inner: s.inbox, tr: tr}
		s.postTr = &postTracer{inner: postRT}
		postRT = s.postTr
	}
	s.post = &http.Client{Transport: postRT, Timeout: 30 * time.Second}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.coord.Close()
		return nil, 0, 0, err
	}
	s.url = "http://" + ln.Addr().String() + "/inbox"
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(ln)

	eps := make([]leakprof.Endpoint, len(w.eps))
	for i, ep := range w.eps {
		ep.URL = fleetURL + ep.URL + "?debug=2"
		eps[i] = ep
	}
	s.parts = leakprof.PartitionEndpoints(eps, cfg.shards)
	for range s.parts {
		// One connection and one fetch at a time per worker.
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.clients = append(s.clients, t)
		var rt http.RoundTripper = t
		if tr != nil {
			ft := &fetchTracer{inner: t, tr: tr}
			s.fetchTr = append(s.fetchTr, ft)
			rt = ft
		}
		s.workers = append(s.workers, leakprof.New(
			leakprof.WithThreshold(cfg.threshold),
			leakprof.WithParallelism(1),
			leakprof.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}),
			leakprof.WithClock(clock),
		))
	}
	return s, time.Since(start), recovered, nil
}

func (s *pullSystem) stop() error {
	s.srv.Close()
	for _, t := range s.clients {
		t.CloseIdleConnections()
	}
	s.post.CloseIdleConnections()
	return s.coord.Close()
}

func (s *pullSystem) onSweep(sw *leakprof.Sweep) {
	if s.tr != nil {
		s.first = sweepSpans(s.tr, s.dayRoot, s.day.Load(), s.times.take(sw), time.Now())
		s.journal.note(s.store)
	}
}

// dayResult is one day's outcome.
type dayResult struct {
	sweep            *leakprof.Sweep
	start, end       time.Time
	failed           int
	finishes         []time.Time
	profiles, errors int
}

// runDay sweeps day d: the shard workers in parallel, each posting its
// report, then the coordinator's merged Sweep.
func (s *pullSystem) runDay(ctx context.Context, d int64) (dayResult, error) {
	s.day.Store(d)
	res := dayResult{start: time.Now(), finishes: make([]time.Time, len(s.workers))}
	var root int64
	if s.tr != nil {
		root = s.tr.id()
		s.dayRoot = root
	}
	prev := s.store.LastFailureCounts()
	var wg sync.WaitGroup
	postErrs := make([]error, len(s.workers))
	for i := range s.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := "shard" + strconv.Itoa(i)
			wctx := ctx
			var shardSpan int64
			if s.tr != nil {
				shardSpan = s.tr.id()
				wctx = withSpan(ctx, d, shardSpan)
			}
			t0 := time.Now()
			rep, _ := s.workers[i].ShardSweep(wctx, leakprof.StaticEndpoints(s.parts[i]...), name, prev)
			t1 := time.Now()
			pctx := ctx
			var postSpan int64
			if s.tr != nil {
				s.tr.add(shardSpan, root, d, "shard.sweep", t0, t1)
				postSpan = s.tr.id()
				pctx = withSpan(ctx, d, postSpan)
			}
			postErrs[i] = leakprof.PostShardReportAuth(pctx, s.post, s.url, s.token, rep)
			res.finishes[i] = time.Now()
			if s.tr != nil {
				s.tr.add(postSpan, root, d, "wire.post", t1, res.finishes[i])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range postErrs {
		if err != nil {
			res.failed++
		}
	}
	fetches := make([]leakprof.ShardFetch, len(s.workers))
	for i := range fetches {
		fetches[i] = s.inbox.Fetch("shard" + strconv.Itoa(i))
	}
	mergeStart := time.Now()
	sw, err := s.coord.Sweep(ctx, leakprof.MergedReportsWithin(10*time.Second, fetches...))
	res.end = time.Now()
	res.sweep = sw
	if sw != nil {
		res.profiles, res.errors = sw.Profiles, sw.Errors
	}
	if s.tr != nil {
		s.tr.record(root, d, "merge", mergeStart, s.first)
		s.tr.add(root, 0, d, "sweep", res.start, res.end)
	}
	return res, err
}

func (w *pullWorkload) run(ctx context.Context, ph phase) (*phaseResult, error) {
	cfg := w.cfg
	res := &phaseResult{layers: map[string]float64{}}
	seedDir := filepath.Join(ph.dir, "seed")
	if err := seedJournal(seedDir, cfg.seedKeys, leakprof.DefaultStateMaxSegments); err != nil {
		return nil, fmt.Errorf("seeding journal: %w", err)
	}
	fleet := &fleetServer{w: w, tr: ph.tr}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fsrv := &http.Server{Handler: fleet}
	go fsrv.Serve(fln)
	defer fsrv.Close()
	fleetURL := "http://" + fln.Addr().String()

	sys, setupS, recoverMS, err := setUp(cfg.setupReps, seedDir, ph.dir, func(dir string) (*pullSystem, time.Duration, time.Duration, error) {
		return w.startPull(dir, fleetURL, &fleet.day, ph.tr)
	})
	if err != nil {
		return nil, err
	}

	found := map[string]bool{}
	note := func(d dayResult) {
		res.attempted += int64(len(sys.workers)) + int64(d.profiles+d.errors)
		res.failed += int64(d.failed + d.errors)
		if d.sweep != nil {
			for _, f := range d.sweep.Findings {
				found[f.Key()] = true
			}
		}
	}

	// The checked day, outside the timed loop: the merged sweep must equal
	// one process sweeping the same bodies.
	d0, err := sys.runDay(ctx, 0)
	if err != nil {
		res.gate(fmt.Errorf("checked day: %w", err))
	}
	note(d0)
	res.gate(w.checkParity(ctx, d0.sweep))

	var sweepMS timedSamples
	var skew, cpuPer samples
	profiles := 0
	resetPeakRSS()
	loopStart := time.Now()
	for d := int64(1); time.Since(loopStart) < ph.dur; d++ {
		u0 := readUsage()
		dr, err := sys.runDay(ctx, d)
		if dr.profiles > 0 {
			cpuPer.add(ms(readUsage().cpu-u0.cpu) / float64(dr.profiles))
		}
		if err != nil {
			res.gate(fmt.Errorf("day %d: %w", d, err))
		}
		note(dr)
		sweepMS.add(dr.start, dr.end.Sub(dr.start))
		profiles += dr.profiles
		lo, hi := dr.finishes[0], dr.finishes[0]
		for _, f := range dr.finishes {
			if f.Before(lo) {
				lo = f
			}
			if f.After(hi) {
				hi = f
			}
		}
		skew.addDur(hi.Sub(lo))
	}
	loopEnd := time.Now()
	days := len(sweepMS.all)
	segsEnd := sys.store.SegmentCount()
	keys := len(sys.store.Tracker().Keys())
	if err := sys.stop(); err != nil {
		res.gate(fmt.Errorf("closing coordinator: %w", err))
	}
	res.gate(checkAlerts(w.truth, alertKeys(sys.reports), found))
	res.gate(checkReopen(sys.store.Dir(), sys.store.BugDB().All()))
	if profiles == 0 {
		return nil, fmt.Errorf("pull-churn: no profile was swept")
	}

	// Profiles per second of sweep wall time, taken over the same slices
	// as the latencies: a day's profiles over the median slice's mean day.
	sweepMean, sweepTail := sweepMS.sliced(loopStart, loopEnd)
	res.e2e = map[string]float64{
		"setup_s":         setupS.median(),
		"dumps_per_s":     float64(profiles) / float64(days) / (sweepMean / 1000),
		"cpu_ms_per_dump": cpuPer.median(),
		"peak_rss_mb":     peakRSSMB(),
		"result_mean_ms":  sweepMean,
		"result_tail_ms":  sweepTail,
	}
	res.headline = sweepMean
	res.rows = []row{
		{"setup_s", setupS.median(), "s", len(setupS)},
		{"dumps_per_s", res.e2e["dumps_per_s"], "1/s", profiles},
		{"cpu_ms_per_dump", res.e2e["cpu_ms_per_dump"], "ms", len(cpuPer)},
		{"peak_rss_mb", res.e2e["peak_rss_mb"], "MB", 1},
		{"result_mean_ms", sweepMean, "ms", days},
		{"result_tail_ms", sweepTail, "ms", days},
		{"sweep_p50_ms", sweepMS.all.median(), "ms", days},
		{"sweep_p90_ms", sweepMS.all.pct(90), "ms", days},
		{"days", float64(days), "count", 1},
		{"state.keys", float64(keys), "count", 1},
		{"journal.segments_open", float64(sys.segsOpen), "count", 1},
		{"journal.segments_end", float64(segsEnd), "count", 1},
	}
	if ph.tr != nil {
		spans := ph.tr.snapshot()
		res.spans = spans
		L := res.layers
		L["serve.ms_p50"] = durations(spans, "serve").median()
		var wait, consumed samples
		for _, ft := range sys.fetchTr {
			wait = append(wait, ft.wait...)
			consumed = append(consumed, ft.consumed...)
		}
		L["collect.fetch_wait_ms_p50"] = wait.median()
		L["collect.consume_ms_p50"] = consumed.median()
		L["shard.sweep_ms_p50"] = durations(spans, "shard.sweep").median()
		L["wire.post_ms_p50"] = durations(spans, "wire.post").median()
		L["wire.report_kb_p50"] = sys.postTr.kbs.median()
		L["inbox.handle_ms_p50"] = durations(spans, "inbox.handle").median()
		L["shard.skew_ms_p50"] = skew.median()
		L["merge.ms_p50"] = durations(spans, "merge").median()
		L["sink.report_ms_p50"] = durations(spans, "sink.report").median()
		L["sink.trend_ms_p50"] = durations(spans, "sink.trend").median()
		rec := durations(spans, "journal.record")
		L["journal.record_ms_p50"] = rec.median()
		L["journal.record_ms_p90"] = rec.pct(90)
		L["journal.kb_per_sweep"] = sys.journal.growthKB.median()
		L["journal.compactions"] = float64(sys.journal.compactions)
		L["state.keys"] = float64(keys)
		L["setup.recover_ms"] = recoverMS.median()
		L["sweep.unattributed_pct"] = unattributedPct(spans, "sweep")
		L["scan.ms_per_dump"], L["scan.mb_per_s"], L["scan.allocs_per_dump"] = scanReplay(w.bodies[0], 500*time.Millisecond)
	}
	return res, nil
}

// checkParity is the sharding gate: the coordinator's merged sweep of a
// day equals one pipeline sweeping that day's bodies in one process,
// finding for finding and moment for moment.
func (w *pullWorkload) checkParity(ctx context.Context, merged *leakprof.Sweep) error {
	if merged == nil {
		return fmt.Errorf("parity: no merged sweep")
	}
	var dumps []leakprof.Dump
	for i, ep := range w.eps {
		svc := i / w.cfg.instances
		dumps = append(dumps, leakprof.Dump{Service: ep.Service, Instance: ep.Instance,
			Body: bytes.NewReader(w.bodies[0][svc])})
	}
	ref, err := leakprof.New(leakprof.WithThreshold(w.cfg.threshold)).Sweep(ctx, leakprof.Dumps(dumps...))
	if err != nil {
		return fmt.Errorf("parity: reference sweep: %w", err)
	}
	return sameSweep(ref, merged)
}

func sameSweep(ref, got *leakprof.Sweep) error {
	if ref.Profiles != got.Profiles {
		return fmt.Errorf("parity: merged sweep holds %d profiles, reference %d", got.Profiles, ref.Profiles)
	}
	if len(ref.Findings) != len(got.Findings) {
		return fmt.Errorf("parity: merged sweep has %d findings, reference %d", len(got.Findings), len(ref.Findings))
	}
	for i, r := range ref.Findings {
		g := got.Findings[i]
		if r.Key() != g.Key() || r.TotalBlocked != g.TotalBlocked || r.Instances != g.Instances ||
			r.SuspiciousInstances != g.SuspiciousInstances || r.MaxCount != g.MaxCount ||
			r.MaxInstance != g.MaxInstance || !near(r.Impact, g.Impact) {
			return fmt.Errorf("parity: finding %d differs: reference %+v, merged %+v", i, *r, *g)
		}
	}
	rm, gm := ref.Moments(), got.Moments()
	if len(rm) != len(gm) {
		return fmt.Errorf("parity: merged sweep has %d moments, reference %d", len(gm), len(rm))
	}
	sort.Slice(rm, func(i, j int) bool { return rm[i].Key() < rm[j].Key() })
	sort.Slice(gm, func(i, j int) bool { return gm[i].Key() < gm[j].Key() })
	for i := range rm {
		r, g := rm[i], gm[i]
		if r.Key() != g.Key() || r.Total != g.Total || r.Instances != g.Instances ||
			r.ServiceProfiles != g.ServiceProfiles || r.Suspicious != g.Suspicious ||
			r.MaxCount != g.MaxCount || r.MaxInstance != g.MaxInstance || !near(r.SumSquares, g.SumSquares) {
			return fmt.Errorf("parity: moment %q differs: reference %+v, merged %+v", r.Key(), r, g)
		}
	}
	return nil
}

// near compares floats a merge may sum in a different order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
