package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. A traced run records one span around each call the benchmark
// makes into a layer's public functions (and around the wrappers it hands
// the system: handlers, sinks, round trippers). Spans of one request,
// window, day or verification share a request id; Parent links a span to
// the span that caused it. Spans stay in memory and are written out once,
// when the run ends. An untraced run has a nil *tracer and installs no
// wrappers at all.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans caps the in-memory span log; a traced run of any workload at
// its configured rate stays well below it, and the cap keeps a
// misconfigured run from exhausting memory.
const maxSpans = 2_000_000

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, for a span whose children are recorded before it
// ends.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// record records a finished span and returns its id.
func (t *tracer) record(parent, req int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.add(id, parent, req, name, start, end)
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) droppedSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// durations returns the duration of every span named name, in ms.
func durations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out.addDur(s.dur())
		}
	}
	return out
}

// perReq sums, per request id, the durations of spans named name, in ms:
// the per-request total of a layer recorded as several intervals (blocked
// body reads, for example).
func perReq(spans []span, name string) samples {
	sum := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			sum[s.Req] += s.dur()
		}
	}
	out := make(samples, 0, len(sum))
	for _, d := range sum {
		out.addDur(d)
	}
	return out
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], end)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerTime is a span name's total and self time across a run.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// childIntervals maps each span id to its children's intervals.
func childIntervals(spans []span) map[int64][][2]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return children
}

// selfTimes returns each span name's self time: its duration minus the
// part of it that its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := childIntervals(spans)
	acc := map[string]*layerTime{}
	for _, s := range spans {
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			acc[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// unattributedPct is the share of the root spans' time (spans named root)
// that none of their child spans covers, in percent.
func unattributedPct(spans []span, root string) float64 {
	children := childIntervals(spans)
	var total, cov int64
	for _, s := range spans {
		if s.Name == root {
			total += s.End - s.Start
			cov += covered(s.Start, s.End, children[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(total-cov) / float64(total)
}

// writeSpans writes the span log as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time report.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "# per-layer self time (traced run)\n")
	fmt.Fprintf(w, "# %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
}
