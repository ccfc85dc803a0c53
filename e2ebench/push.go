package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gprofile"
	"repro/leakprof"
)

// push-scan: a seeded fleet POSTs gzip'd debug=2 dumps of about 10^4
// goroutines to an IngestServer over loopback keep-alive connections, on
// an open-loop Poisson schedule at a fixed rate well below the host's
// capacity. Tumbling windows close many times a run, each emitting a Sweep
// through the report and trend sinks and an fsync'd journal frame.

type pushConfig struct {
	services, instances, variants int
	benign                        int // benign goroutines per dump
	leaky                         int // services with a planted leak
	leakSize                      int // planted cluster size, >= threshold
	hardSize                      int // hard-negative cluster size, < threshold
	hardPer                       int // hard negatives per dump
	threshold                     int
	rate                          float64 // offered dumps per second
	window                        time.Duration
	seedKeys                      int // keys in the seeded journal
	setupReps                     int
	conns                         int
}

func pushScale(tiny bool) pushConfig {
	c := pushConfig{
		services: 8, instances: 4, variants: 2,
		benign: 5000,
		leaky:  3, leakSize: 1300, hardSize: 990, hardPer: 2,
		threshold: 1000,
		rate:      60,
		window:    50 * time.Millisecond,
		seedKeys:  2000,
		setupReps: 15,
		conns:     runtime.NumCPU(),
	}
	if tiny {
		c.services, c.instances, c.variants = 3, 2, 1
		c.benign, c.leaky, c.leakSize, c.hardSize, c.threshold = 300, 1, 70, 49, 50
		c.rate, c.seedKeys, c.setupReps = 40, 50, 2
	}
	return c
}

type pushTarget struct{ service, instance string }

type pushWorkload struct {
	cfg      pushConfig
	p        params
	targets  []pushTarget
	bodies   [][]byte // gzip'd; body i belongs to targets[i/variants]
	rawBytes int64
	truth    plantedSet
}

func newPush(p params) (workload, error) {
	cfg := pushScale(p.tiny)
	r := rand.New(rand.NewSource(p.seed))
	w := &pushWorkload{cfg: cfg, p: p, truth: newPlantedSet()}
	services := make([]string, cfg.services)
	for i := range services {
		services[i] = fmt.Sprintf("svc%02d", i)
	}
	leaks, hard := clusterSites(r, services, cfg.leaky, cfg.hardPer)
	for _, svc := range services {
		if s, ok := leaks[svc]; ok {
			w.truth.leaks[s.key(svc)] = true
		}
		for _, s := range hard[svc] {
			w.truth.hard[s.key(svc)] = true
		}
		for i := 0; i < cfg.instances; i++ {
			t := pushTarget{svc, fmt.Sprintf("%s-i%d", svc, i)}
			w.targets = append(w.targets, t)
			for v := 0; v < cfg.variants; v++ {
				b := newDumpBuilder()
				b.benign(r, cfg.benign)
				if s, ok := leaks[svc]; ok {
					b.cluster(s, cfg.leakSize)
				}
				for _, s := range hard[svc] {
					b.cluster(s, cfg.hardSize)
				}
				raw := b.render()
				w.rawBytes += int64(len(raw))
				w.bodies = append(w.bodies, gzipBytes(raw))
			}
		}
	}
	return w, nil
}

// pushSystem is the system under test for one phase: a pipeline with a
// recovered journal and the production sinks, an IngestServer running its
// window loop, and an HTTP server on a loopback listener.
type pushSystem struct {
	pipe    *leakprof.Pipeline
	store   *leakprof.StateStore
	ingest  *leakprof.IngestServer
	reports *leakprof.ReportSink
	srv     *http.Server
	url     string
	cancel  context.CancelFunc
	runDone chan struct{}

	tr    *tracer
	times sweepTimes
	folds foldTracker

	mu      sync.Mutex
	sweeps  []pushSweep
	journal journalWatch
}

// pushSweep is what the OnSweep hook observed of one window.
type pushSweep struct {
	at, done time.Time
	profiles int
	keys     []string
}

// startPush sets the system up on a recovered copy of the journal and
// returns it with the set-up and journal-recovery times.
func (w *pushWorkload) startPush(dir string, tr *tracer) (*pushSystem, time.Duration, time.Duration, error) {
	cfg := w.cfg
	s := &pushSystem{tr: tr, runDone: make(chan struct{})}
	start := time.Now()
	s.pipe = leakprof.New(
		leakprof.WithThreshold(cfg.threshold),
		leakprof.WithWindow(cfg.window),
		leakprof.WithStateDir(dir),
		leakprof.WithTrendRetention(trendRetention),
		leakprof.WithOnSweep(s.onSweep),
	)
	store, err := s.pipe.State()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("recovering journal: %w", err)
	}
	recovered := time.Since(start)
	s.store = store
	s.journal.segs = store.SegmentCount()
	var sinks []leakprof.Sink
	s.reports, sinks = sinkSet(store, tr, &s.times, w.p.sabotage)
	s.pipe.AddSinks(sinks...)
	if tr != nil {
		s.folds.tr = tr
		s.pipe.AddSinks(&s.folds)
	}
	s.ingest = leakprof.NewIngestServer(s.pipe)
	var h http.Handler = s.ingest
	if tr != nil {
		h = &tracedIngest{inner: s.ingest, tr: tr, folds: &s.folds}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.pipe.Close()
		return nil, 0, 0, err
	}
	s.url = "http://" + ln.Addr().String() + "/ingest"
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.runDone)
		s.ingest.Run(ctx)
	}()
	return s, time.Since(start), recovered, nil
}

// stop ends the window loop, the HTTP server and the pipeline, and waits
// for all of them.
func (s *pushSystem) stop() error {
	s.cancel()
	<-s.runDone
	s.srv.Close()
	return s.pipe.Close()
}

func (s *pushSystem) onSweep(sw *leakprof.Sweep) {
	done := time.Now()
	obs := pushSweep{at: sw.At, done: done, profiles: sw.Profiles}
	for _, f := range sw.Findings {
		obs.keys = append(obs.keys, f.Key())
	}
	if s.tr != nil {
		s.traceSweep(sw, done)
		s.journal.note(s.store)
	}
	s.mu.Lock()
	s.sweeps = append(s.sweeps, obs)
	s.mu.Unlock()
}

// traceSweep records a window's result span: from the window's end to
// the OnSweep hook, split into the close (to the first SweepDone), the
// sinks, and the journal record.
func (s *pushSystem) traceSweep(sw *leakprof.Sweep, done time.Time) {
	end := sw.At.Add(s.pipe.Config().Window)
	if done.Before(end) {
		return // closed early by shutdown: no window end to measure from
	}
	req := end.UnixNano()
	root := s.tr.id()
	first := sweepSpans(s.tr, root, req, s.times.take(sw), done)
	s.tr.record(root, req, "window.close", end, first)
	s.tr.add(root, 0, req, "result", end, done)
}

// foldTracker is a sink that times each dump from its 202 to the fold:
// the handler wrapper reports the 202, the pipeline reports the folded
// snapshot, and whichever comes second records fold.wait. An instance
// posts about every half second, so one pending dump per instance
// suffices.
type foldTracker struct {
	tr   *tracer
	mu   sync.Mutex
	pend map[string]*foldPend
}

type foldPend struct {
	req, parent      int64
	accepted, folded time.Time
}

func (f *foldTracker) entry(key string) *foldPend {
	if f.pend == nil {
		f.pend = map[string]*foldPend{}
	}
	p := f.pend[key]
	if p == nil {
		p = &foldPend{}
		f.pend[key] = p
	}
	return p
}

func (f *foldTracker) accepted(key string, req, parent int64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.entry(key)
	p.req, p.parent, p.accepted = req, parent, at
	f.finish(key, p)
}

func (f *foldTracker) Snapshot(snap *gprofile.Snapshot) {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	key := snap.Service + "/" + snap.Instance
	p := f.entry(key)
	p.folded = now
	f.finish(key, p)
}

func (f *foldTracker) finish(key string, p *foldPend) {
	if p.accepted.IsZero() || p.folded.IsZero() {
		return
	}
	end := p.folded
	if end.Before(p.accepted) {
		end = p.accepted // folded before the 202 was written
	}
	f.tr.record(p.parent, p.req, "fold.wait", p.accepted, end)
	delete(f.pend, key)
}

func (*foldTracker) SweepDone(*leakprof.Sweep) error { return nil }

// tracedIngest wraps IngestServer.ServeHTTP: it times the handler and the
// blocked reads of the raw request body, and reports each 202 to the fold
// tracker.
type tracedIngest struct {
	inner http.Handler
	tr    *tracer
	folds *foldTracker
}

func (h *tracedIngest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	id := h.tr.id()
	start := time.Now()
	r.Body = &timedBody{ReadCloser: r.Body, tr: h.tr, parent: id, req: req, name: "ingest.body_wait"}
	rec := &statusWriter{ResponseWriter: w}
	h.inner.ServeHTTP(rec, r)
	end := time.Now()
	h.tr.add(id, parent, req, "ingest.handle", start, end)
	if rec.status == http.StatusAccepted {
		q := r.URL.Query()
		h.folds.accepted(q.Get("service")+"/"+q.Get("instance"), req, parent, end)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// timedBody records each blocked Read of a body as a span.
type timedBody struct {
	io.ReadCloser
	tr          *tracer
	parent, req int64
	name        string
	waited      time.Duration
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.ReadCloser.Read(p)
	end := time.Now()
	b.waited += end.Sub(start)
	b.tr.record(b.parent, b.req, b.name, start, end)
	return n, err
}

// post is one scheduled request's outcome.
type post struct {
	due, sent, done time.Time
	ok              bool
}

func (w *pushWorkload) run(ctx context.Context, ph phase) (*phaseResult, error) {
	cfg := w.cfg
	res := &phaseResult{layers: map[string]float64{}}
	seedDir := filepath.Join(ph.dir, "seed")
	if err := seedJournal(seedDir, cfg.seedKeys, 1); err != nil {
		return nil, fmt.Errorf("seeding journal: %w", err)
	}
	// Set up several times and keep the last system; set-up time is the
	// median.
	sys, setupS, recoverMS, err := setUp(cfg.setupReps, seedDir, ph.dir, func(dir string) (*pushSystem, time.Duration, time.Duration, error) {
		return w.startPush(dir, ph.tr)
	})
	if err != nil {
		return nil, err
	}

	// The open-loop schedule: Poisson arrivals at cfg.rate, conditioned on
	// their count (so every run offers the same number of dumps), and for
	// each request a target instance (round robin) and a body variant, all
	// from the seed.
	r := rand.New(rand.NewSource(w.p.seed ^ 0x5eed))
	offsets := make([]time.Duration, int(cfg.rate*ph.dur.Seconds()))
	for i := range offsets {
		offsets[i] = time.Duration(r.Int63n(int64(ph.dur)))
	}
	slices.Sort(offsets)
	picks := make([]int, len(offsets))
	for k := range picks {
		picks[k] = (k%len(w.targets))*cfg.variants + r.Intn(cfg.variants)
	}
	posts := make([]post, len(offsets))

	var stopSample chan struct{}
	var sampled sync.WaitGroup
	var queueMax atomic.Int64
	if ph.tr != nil {
		stopSample = make(chan struct{})
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-t.C:
					if n := int64(sys.ingest.Stats().QueueLen); n > queueMax.Load() {
						queueMax.Store(n)
					}
				}
			}
		}()
	}

	resetPeakRSS()
	sl := newSlicer(slicePeriod(ph.dur), func() int64 { return int64(sys.ingest.Stats().Folded) })
	stopSlices := sl.run()
	genStart := time.Now()
	var next atomic.Int64
	var senders sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			// One keep-alive connection per sender.
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(offsets) || ctx.Err() != nil {
					return
				}
				due := genStart.Add(offsets[k])
				time.Sleep(time.Until(due))
				posts[k] = w.send(client, sys, k, picks[k], due)
			}
		}()
	}
	senders.Wait()
	genEnd := time.Now()
	foldedAtEnd := sys.ingest.Stats().Folded

	// Drain: every admitted dump folds and lands in a closed window.
	admitted := sys.ingest.Stats().Admitted
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sys.ingest.Stats()
		sys.mu.Lock()
		swept := 0
		for _, sw := range sys.sweeps {
			swept += sw.profiles
		}
		sys.mu.Unlock()
		if st.Folded == admitted && uint64(swept) >= admitted {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stopSlices()
	_, cpuPerDump, rssMB := sl.medians()
	drainStats := sys.ingest.Stats()
	if stopSample != nil {
		close(stopSample)
		sampled.Wait()
	}
	if err := sys.stop(); err != nil {
		res.gate(fmt.Errorf("closing pipeline: %w", err))
	}

	// Outcomes.
	var admit, late samples
	for _, p := range posts {
		if p.due.IsZero() {
			continue
		}
		res.attempted++
		late.addDur(p.sent.Sub(p.due))
		if !p.ok {
			res.failed++
			continue
		}
		admit.addDur(p.done.Sub(p.due))
	}
	var result timedSamples
	found := map[string]bool{}
	swept := 0
	for _, sw := range sys.sweeps {
		swept += sw.profiles
		for _, k := range sw.keys {
			found[k] = true
		}
		end := sw.at.Add(cfg.window)
		if !sw.at.Before(genStart) && !end.After(genEnd) {
			result.add(end, sw.done.Sub(end))
		}
	}

	// Gates.
	res.gate(checkAlerts(w.truth, alertKeys(sys.reports), found))
	res.gate(checkDrain(drainStats, swept, res.attempted-res.failed))
	res.gate(checkReopen(sys.store.Dir(), sys.store.BugDB().All()))

	dumps := float64(drainStats.Admitted)
	if dumps == 0 {
		return nil, errors.New("push-scan: no dump was admitted")
	}
	el := genEnd.Sub(genStart)
	resultMean, resultTail := result.sliced(genStart, genEnd)
	res.e2e = map[string]float64{
		"setup_s":         setupS.median(),
		"dumps_per_s":     float64(foldedAtEnd) / el.Seconds(),
		"cpu_ms_per_dump": cpuPerDump,
		"peak_rss_mb":     rssMB,
		"result_mean_ms":  resultMean,
		"result_tail_ms":  resultTail,
	}
	res.headline = resultMean
	res.rows = []row{
		{"setup_s", setupS.median(), "s", len(setupS)},
		{"dumps_per_s", res.e2e["dumps_per_s"], "1/s", int(foldedAtEnd)},
		{"cpu_ms_per_dump", cpuPerDump, "ms", sl.slices()},
		{"peak_rss_mb", rssMB, "MB", sl.slices()},
		{"admit_p50_ms", admit.median(), "ms", len(admit)},
		{"admit_p99_ms", admit.pct(99), "ms", len(admit)},
		{"result_mean_ms", resultMean, "ms", len(result.all)},
		{"result_tail_ms", resultTail, "ms", len(result.all)},
		{"result_p50_ms", result.all.median(), "ms", len(result.all)},
		{"result_p90_ms", result.all.pct(90), "ms", len(result.all)},
		{"result_p99_ms", result.all.pct(99), "ms", len(result.all)},
		{"loadgen.late_p99_ms", late.pct(99), "ms", len(late)},
		{"windows", float64(drainStats.Windows), "count", 1},
		{"dump_kb_raw", float64(w.rawBytes) / 1024 / float64(len(w.bodies)), "KB", len(w.bodies)},
		{"dump_kb_gzip", float64(w.gzBytes()) / 1024 / float64(len(w.bodies)), "KB", len(w.bodies)},
	}
	if ph.tr != nil {
		w.layers(res, sys, ph.tr, late, recoverMS, int64(queueMax.Load()), drainStats)
	}
	return res, nil
}

func (w *pushWorkload) gzBytes() int {
	n := 0
	for _, b := range w.bodies {
		n += len(b)
	}
	return n
}

// checkDrain is the ingest accounting gate: at drain every admitted dump
// has folded, every folded dump sits in a closed window, and the server
// admitted exactly the dumps the generator saw accepted.
func checkDrain(st leakprof.IngestStats, swept int, accepted int64) error {
	switch {
	case st.Folded != st.Admitted:
		return fmt.Errorf("at drain %d dumps folded of %d admitted", st.Folded, st.Admitted)
	case uint64(swept) != st.Folded:
		return fmt.Errorf("closed windows hold %d dumps, %d folded", swept, st.Folded)
	case st.Admitted != uint64(accepted):
		return fmt.Errorf("server admitted %d dumps, generator saw %d accepted", st.Admitted, accepted)
	}
	return nil
}

// send POSTs body pick as request k, due at due.
func (w *pushWorkload) send(client *http.Client, sys *pushSystem, k, pick int, due time.Time) post {
	t := w.targets[pick/w.cfg.variants]
	q := url.Values{"service": {t.service}, "instance": {t.instance}}
	req, err := http.NewRequest(http.MethodPost, sys.url+"?"+q.Encode(), bytes.NewReader(w.bodies[pick]))
	p := post{due: due, sent: time.Now()}
	if err != nil {
		p.done = p.sent
		return p
	}
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set("X-Bench-Req", strconv.Itoa(k))
	var root, rtt int64
	if sys.tr != nil {
		root, rtt = sys.tr.id(), sys.tr.id()
		req.Header.Set("X-Bench-Span", strconv.FormatInt(rtt, 10))
	}
	resp, err := client.Do(req)
	p.done = time.Now()
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		p.ok = resp.StatusCode == http.StatusAccepted
	}
	if sys.tr != nil {
		sys.tr.record(root, int64(k), "loadgen.late", due, p.sent)
		sys.tr.add(rtt, root, int64(k), "client.rtt", p.sent, p.done)
		sys.tr.add(root, 0, int64(k), "post", due, p.done)
	}
	return p
}

// layers fills the push-scan per-layer metrics from a traced phase.
func (w *pushWorkload) layers(res *phaseResult, sys *pushSystem, tr *tracer, late, recoverMS samples, queueMax int64, st leakprof.IngestStats) {
	spans := tr.snapshot()
	res.spans = spans
	L := res.layers
	L["loadgen.late_p99_ms"] = late.pct(99)
	handle := durations(spans, "ingest.handle")
	L["ingest.handle_ms_p50"] = handle.median()
	L["ingest.handle_ms_p99"] = handle.pct(99)
	L["ingest.body_wait_ms_p50"] = perReq(spans, "ingest.body_wait").median()
	// net.overhead: client round trip minus handler time, per request.
	rtt := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "client.rtt" {
			rtt[s.Req] = s.End - s.Start
		}
	}
	var overhead samples
	for _, s := range spans {
		if s.Name == "ingest.handle" {
			if d, ok := rtt[s.Req]; ok {
				overhead.addDur(time.Duration(d - (s.End - s.Start)))
			}
		}
	}
	L["net.overhead_ms_p50"] = overhead.median()
	L["ingest.queue_len_max"] = float64(queueMax)
	fold := durations(spans, "fold.wait")
	L["fold.wait_ms_p50"] = fold.median()
	L["fold.wait_ms_p99"] = fold.pct(99)
	closeMS := durations(spans, "window.close")
	L["window.close_ms_p50"] = closeMS.median()
	L["window.close_ms_p90"] = closeMS.pct(90)
	if st.Windows > 0 {
		L["window.pause_ms_mean"] = ms(st.WindowPause) / float64(st.Windows)
	}
	L["sink.report_ms_p50"] = durations(spans, "sink.report").median()
	L["sink.trend_ms_p50"] = durations(spans, "sink.trend").median()
	rec := durations(spans, "journal.record")
	L["journal.record_ms_p50"] = rec.median()
	L["journal.record_ms_p90"] = rec.pct(90)
	L["journal.kb_per_sweep"] = sys.journal.growthKB.median()
	L["journal.compactions"] = float64(sys.journal.compactions)
	L["state.keys"] = float64(len(sys.store.Tracker().Keys()))
	L["setup.recover_ms"] = recoverMS.median()
	L["result.unattributed_pct"] = unattributedPct(spans, "result")
	raw := make([][]byte, 0, len(w.bodies))
	for _, b := range w.bodies {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			continue
		}
		plain, err := io.ReadAll(zr)
		if err == nil {
			raw = append(raw, plain)
		}
	}
	L["scan.ms_per_dump"], L["scan.mb_per_s"], L["scan.allocs_per_dump"] = scanReplay(raw, 500*time.Millisecond)
}
