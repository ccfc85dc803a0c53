package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/leakprof"
)

// Pieces the push and pull workloads share: the seeded journal, the
// sink wrappers a traced run installs, and the correctness gates.

// trendRetention is the per-key trend history the workloads keep, as in
// the package's BenchmarkSweepCriticalPath steady state.
const trendRetention = 30

// seedTime is the seeded journal's clock origin.
var seedTime = time.Unix(0, 0).UTC()

// seedJournal writes a journal tracking keys filler bugs and trend keys:
// the state a long-running deployment recovers at start-up. Filler keys
// belong to a service no workload profiles, so they never collide with
// planted leaks. With segments <= 1 the journal is compacted to one
// snapshot segment. Otherwise the keys are appended as segments delta
// frames, one segment each: a journal just below the shipped compaction
// threshold, as it stands between two compactions, so that a run's own
// appends soon roll a segment and fire a compaction.
func seedJournal(dir string, keys, segments int) error {
	opts := []leakprof.StateOption{leakprof.StateTrendRetention(trendRetention)}
	if segments > 1 {
		// A one-byte segment budget rolls a segment per frame; no
		// compaction runs while seeding.
		opts = append(opts, leakprof.StateCompaction(1, segments+1))
	}
	store, err := leakprof.OpenStateStore(dir, opts...)
	if err != nil {
		return err
	}
	chunks := max(segments, 1)
	for c := 0; c < chunks; c++ {
		var findings []*leakprof.Finding
		for i := c * keys / chunks; i < (c+1)*keys/chunks; i++ {
			f := &leakprof.Finding{Service: "filler", Op: "send",
				Location: fmt.Sprintf("/filler/f%06d.go:1", i), TotalBlocked: 1000}
			findings = append(findings, f)
			store.BugDB().File(report.Bug{Key: f.Key(), Service: f.Service, Op: f.Op,
				Location: f.Location, FiledAt: seedTime, BlockedGoroutines: f.TotalBlocked})
		}
		store.Tracker().Observe(seedTime, findings)
		if segments > 1 {
			err = store.RecordSweep(&leakprof.Sweep{At: seedTime, Source: "seed"})
		} else {
			err = store.Save()
		}
		if err != nil {
			store.Close()
			return err
		}
	}
	return store.Close()
}

// setUp starts a system reps times, each on a fresh copy of the seeded
// journal under dir, stops all but the last, and returns that one with
// the set-up times (s) and journal-recovery times (ms) of every start.
func setUp[S interface{ stop() error }](reps int, seedDir, dir string,
	start func(stateDir string) (S, time.Duration, time.Duration, error)) (S, samples, samples, error) {
	var sys S
	var setupS, recoverMS samples
	for i := 0; i < reps; i++ {
		stateDir := filepath.Join(dir, fmt.Sprintf("state%d", i))
		if err := copyDir(seedDir, stateDir); err != nil {
			return sys, nil, nil, err
		}
		s, took, rec, err := start(stateDir)
		if err != nil {
			return sys, nil, nil, err
		}
		setupS.add(took.Seconds())
		recoverMS.addDur(rec)
		if i == reps-1 {
			sys = s
		} else if err := s.stop(); err != nil {
			return sys, nil, nil, err
		}
	}
	return sys, setupS, recoverMS, nil
}

// journalWatch samples the journal after each recorded sweep of a traced
// run: the growth of its directory, and compactions, seen as drops in its
// segment count. Only the OnSweep hook's goroutine touches it.
type journalWatch struct {
	segs, compactions int
	lastKB            float64
	growthKB          samples
}

func (j *journalWatch) note(store *leakprof.StateStore) {
	kb := float64(dirBytes(store.Dir())) / 1024
	if j.lastKB > 0 {
		j.growthKB.add(kb - j.lastKB)
	}
	j.lastKB = kb
	n := store.SegmentCount()
	if n < j.segs {
		j.compactions++
	}
	j.segs = n
}

// sinkSpan is one timed SweepDone call.
type sinkSpan struct {
	name       string
	start, end time.Time
}

// sweepTimes collects the sink wrappers' timings per sweep until the
// pipeline's OnSweep hook takes them.
type sweepTimes struct {
	mu sync.Mutex
	m  map[*leakprof.Sweep][]sinkSpan
}

func (t *sweepTimes) note(sw *leakprof.Sweep, s sinkSpan) {
	t.mu.Lock()
	if t.m == nil {
		t.m = map[*leakprof.Sweep][]sinkSpan{}
	}
	t.m[sw] = append(t.m[sw], s)
	t.mu.Unlock()
}

func (t *sweepTimes) take(sw *leakprof.Sweep) []sinkSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[sw]
	delete(t.m, sw)
	return s
}

// timedSink delegates to a sink and times its SweepDone.
type timedSink struct {
	inner leakprof.Sink
	name  string
	times *sweepTimes
}

func (s *timedSink) Snapshot(snap *gprofile.Snapshot) { s.inner.Snapshot(snap) }

func (s *timedSink) SweepDone(sw *leakprof.Sweep) error {
	start := time.Now()
	err := s.inner.SweepDone(sw)
	s.times.note(sw, sinkSpan{s.name, start, time.Now()})
	return err
}

// dropSweepSink stands in for a broken report sink in the gate tests: it
// never files the sweep's findings.
type dropSweepSink struct{ inner leakprof.Sink }

func (s dropSweepSink) Snapshot(snap *gprofile.Snapshot) { s.inner.Snapshot(snap) }
func (dropSweepSink) SweepDone(*leakprof.Sweep) error    { return nil }

// sinkSet builds the production sink pair over the store, wrapped for
// timing when the run is traced.
func sinkSet(store *leakprof.StateStore, tr *tracer, times *sweepTimes, sabotage string) (*leakprof.ReportSink, []leakprof.Sink) {
	rep := &leakprof.ReportSink{Reporter: &leakprof.Reporter{DB: store.BugDB()}}
	trend := &leakprof.TrendSink{Tracker: store.Tracker()}
	var repSink leakprof.Sink = rep
	if sabotage == "drop-alerts" {
		repSink = dropSweepSink{rep}
	}
	if tr == nil {
		return rep, []leakprof.Sink{repSink, trend}
	}
	return rep, []leakprof.Sink{
		&timedSink{inner: repSink, name: "sink.report", times: times},
		&timedSink{inner: trend, name: "sink.trend", times: times},
	}
}

// sweepSpans records a sweep's sink and journal spans under root: the
// sinks' own calls, then journal.record from the last SweepDone's end to
// the OnSweep hook (the state store's RecordSweep runs in between). It
// returns the first SweepDone's start, or done when no sink ran.
func sweepSpans(tr *tracer, root, req int64, sinks []sinkSpan, done time.Time) time.Time {
	first, last := done, time.Time{}
	for _, s := range sinks {
		tr.record(root, req, s.name, s.start, s.end)
		if s.start.Before(first) {
			first = s.start
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	if !last.IsZero() {
		tr.record(root, req, "journal.record", last, done)
	}
	return first
}

// checkAlerts is the alert gate: over the whole run, the alerted keys are
// exactly the planted leaks, and no sweep ever finds a key outside them
// (a hard negative above all).
func checkAlerts(truth plantedSet, alerted []string, found map[string]bool) error {
	got := map[string]bool{}
	for _, k := range alerted {
		got[k] = true
	}
	for k := range found {
		if truth.hard[k] {
			return fmt.Errorf("hard negative %q was found above threshold", k)
		}
		if !truth.leaks[k] {
			return fmt.Errorf("unplanted key %q was found", k)
		}
	}
	for k := range truth.leaks {
		if !got[k] {
			return fmt.Errorf("planted leak %q was never alerted (%d of %d alerted)", k, len(got), len(truth.leaks))
		}
	}
	for k := range got {
		if !truth.leaks[k] {
			return fmt.Errorf("alert for unplanted key %q", k)
		}
	}
	return nil
}

func alertKeys(rep *leakprof.ReportSink) []string {
	var keys []string
	for _, a := range rep.Alerts() {
		keys = append(keys, a.Bug.Key)
	}
	return keys
}

// checkReopen is the durability gate: a store reopened on dir after
// Close holds exactly the bug database the closed one held in memory.
func checkReopen(dir string, want []report.Bug) error {
	store, err := leakprof.OpenStateStore(dir, leakprof.StateTrendRetention(trendRetention))
	if err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	got := store.BugDB().All()
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing reopened journal: %w", err)
	}
	return sameBugs(want, got)
}

func sameBugs(want, got []report.Bug) error {
	if len(want) != len(got) {
		return fmt.Errorf("reopened journal holds %d bugs, memory held %d", len(got), len(want))
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	for i := range want {
		w, g := want[i], got[i]
		if w.Key != g.Key || w.Service != g.Service || w.Op != g.Op || w.Location != g.Location ||
			w.Function != g.Function || w.Owner != g.Owner || w.BlockedGoroutines != g.BlockedGoroutines ||
			w.Impact != g.Impact || !w.FiledAt.Equal(g.FiledAt) || !w.LastSeen.Equal(g.LastSeen) ||
			w.Status != g.Status || w.Sightings != g.Sightings || w.StaticAlarm != g.StaticAlarm {
			return fmt.Errorf("reopened bug %q differs: memory %+v, journal %+v", w.Key, w, g)
		}
	}
	return nil
}

// scanReplay is the scanner's single-threaded baseline: it scans the run's
// own plain-text bodies one after another with gprofile.ScanSnapshotWith,
// the call the ingest and collect paths make, for at least minDur, and
// returns ms per dump, MB/s and allocations per dump.
func scanReplay(bodies [][]byte, minDur time.Duration) (msPer, mbps, allocs float64) {
	if len(bodies) == 0 {
		return 0, 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var n, bytesRead int
	for n < len(bodies) || time.Since(start) < minDur {
		b := bodies[n%len(bodies)]
		if _, err := gprofile.ScanSnapshotWith("replay", "replay", start, bytes.NewReader(b), nil); err != nil {
			return 0, 0, 0
		}
		bytesRead += len(b)
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return ms(el) / float64(n), float64(bytesRead) / 1e6 / el.Seconds(), float64(after.Mallocs-before.Mallocs) / float64(n)
}
