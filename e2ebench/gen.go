package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"

	"repro/internal/patterns"
	"repro/internal/stack"
	"repro/leakprof"
)

// Input generation. Everything here runs before set-up is timed and only
// produces bytes: the system under test sees rendered debug=2 dumps, never
// the generator's structures.

// clusterPatterns are the shapes planted leaks, hard negatives and churn
// sites take. Relocate gives each site its own source line, which with the
// service and the shape's blocked operation forms the site's finding key.
var clusterPatterns = []*patterns.Pattern{
	patterns.TimeoutLeak, patterns.NCast, patterns.PrematureReturn,
	patterns.ContractDone, patterns.UnclosedRange, patterns.DoubleSend,
}

// site is one blocked-operation location in a rendered dump.
type site struct {
	pat  *patterns.Pattern
	file string
	line int
}

// key returns the leakprof finding key a cluster at s in service yields.
func (s site) key(service string) string {
	f := leakprof.Finding{Service: service, Op: s.pat.Kind.ChannelOp(), Location: fmt.Sprintf("%s:%d", s.file, s.line)}
	return f.Key()
}

// dumpBuilder renders one dump body with sequential goroutine ids.
type dumpBuilder struct {
	gs   []*stack.Goroutine
	next int64
}

func (b *dumpBuilder) benign(r *rand.Rand, n int) {
	b.gs = append(b.gs, patterns.BenignStacks(r, b.next, n)...)
	b.next += int64(n)
}

func (b *dumpBuilder) cluster(s site, n int) {
	gs := s.pat.Stacks(b.next, n)
	patterns.Relocate(gs, s.file, s.line)
	b.gs = append(b.gs, gs...)
	b.next += int64(n)
}

func (b *dumpBuilder) render() []byte {
	return []byte(stack.Format(b.gs))
}

func newDumpBuilder() *dumpBuilder { return &dumpBuilder{next: 1} }

// gzipBytes compresses raw at the default level, as an instance's push
// agent would before POSTing.
func gzipBytes(raw []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw) // writes to a bytes.Buffer cannot fail
	zw.Close()
	return buf.Bytes()
}

// plantedSet is the ground truth for the alert gates: keys that must be
// alerted and keys that must never be.
type plantedSet struct {
	leaks map[string]bool
	hard  map[string]bool
}

func newPlantedSet() plantedSet {
	return plantedSet{leaks: map[string]bool{}, hard: map[string]bool{}}
}

// clusterSites assigns each service its planted leak and hard-negative
// sites: leaky services, chosen by the seed, carry a leak each; every
// service carries hardPer hard negatives. Fixing the counts keeps every
// seed's inputs the same size, so seeds vary content, not cost.
func clusterSites(r *rand.Rand, services []string, leaky, hardPer int) (leaks map[string]site, hard map[string][]site) {
	leaks, hard = map[string]site{}, map[string][]site{}
	mk := func(svc, kind string) site {
		return site{
			pat:  clusterPatterns[r.Intn(len(clusterPatterns))],
			file: fmt.Sprintf("services/%s/%s.go", svc, kind),
			line: 20 + r.Intn(400),
		}
	}
	for _, i := range r.Perm(len(services))[:leaky] {
		leaks[services[i]] = mk(services[i], "leak")
	}
	for _, svc := range services {
		for h := 0; h < hardPer; h++ {
			hard[svc] = append(hard[svc], mk(svc, fmt.Sprintf("near%d", h)))
		}
	}
	return leaks, hard
}
