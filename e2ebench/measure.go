package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a set of measurements in one unit (milliseconds unless a
// name says otherwise).
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// pct returns the p-th percentile by nearest rank, or 0 for no samples.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) median() float64 { return s.pct(50) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

func (s samples) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is the process's CPU time and peak resident set, read from the
// kernel with getrusage so the benchmark never estimates them itself.
type usage struct {
	cpu     time.Duration
	maxRSSk int64 // KiB on Linux
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSk: ru.Maxrss,
	}
}

// timedSamples are latencies, each stamped with when its operation
// started or its result was due.
type timedSamples struct {
	at  []time.Time
	all samples
}

func (t *timedSamples) add(at time.Time, d time.Duration) {
	t.at = append(t.at, at)
	t.all.addDur(d)
}

// latencySlices is the number of equal time slices a run's latencies are
// split into for the gated mean and tail.
const latencySlices = 10

// sliced splits the samples into latencySlices equal slices of
// [start, end) by timestamp and returns the median over the slices of
// each slice's mean and p90. A host disturbance that lasts a few slices
// moves neither, where it would move the whole run's tail.
func (t *timedSamples) sliced(start, end time.Time) (mean, p90 float64) {
	parts := make([]samples, latencySlices)
	width := end.Sub(start) / latencySlices
	for i, at := range t.at {
		k := int(at.Sub(start) / max(width, 1))
		if k >= 0 && k < latencySlices {
			parts[k] = append(parts[k], t.all[i])
		}
	}
	var means, tails samples
	for _, p := range parts {
		if len(p) > 0 {
			means.add(p.mean())
			tails.add(p.pct(90))
		}
	}
	return means.median(), tails.median()
}

// slicer samples an operation counter and the process CPU at the end of
// each period while a phase runs. Its figures are medians over the
// slices, so a disturbance on a shared host that lasts a few slices moves
// neither.
type slicer struct {
	period  time.Duration
	count   func() int64
	lastT   time.Time
	lastN   int64
	lastCPU time.Duration
	rates   samples // operations per second, per slice
	cpuPer  samples // CPU ms per operation, per slice with operations
	rssMB   samples // peak resident set, per slice
}

// slicePeriod splits a phase into about fifteen slices.
func slicePeriod(dur time.Duration) time.Duration { return dur / 15 }

func newSlicer(period time.Duration, count func() int64) *slicer {
	resetHWM()
	return &slicer{period: period, count: count, lastT: time.Now(), lastN: count(), lastCPU: readUsage().cpu}
}

// sample closes the current slice if its period has passed.
func (s *slicer) sample() {
	now := time.Now()
	if now.Sub(s.lastT) < s.period {
		return
	}
	n, cpu := s.count(), readUsage().cpu
	d := n - s.lastN
	s.rates.add(float64(d) / now.Sub(s.lastT).Seconds())
	if d > 0 {
		s.cpuPer.add(ms(cpu-s.lastCPU) / float64(d))
	}
	s.rssMB.add(peakRSSMB())
	resetHWM()
	s.lastT, s.lastN, s.lastCPU = now, n, cpu
}

// run samples on its own goroutine until the returned stop is called.
func (s *slicer) run() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(s.period / 20)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// slices is the number of whole slices sampled.
func (s *slicer) slices() int { return len(s.rssMB) }

// medians returns the median operations per second, CPU ms per
// operation and peak resident set (MB) over the whole slices.
func (s *slicer) medians() (rate, cpuPer, rssMB float64) {
	return s.rates.median(), s.cpuPer.median(), s.rssMB.median()
}

// resetPeakRSS returns the heap's free pages to the kernel and resets the
// kernel's peak-RSS mark, so that peakRSSMB reports the peak of the
// measured interval that follows rather than of input generation. Where
// the kernel refuses the reset, the peak stays the process's lifetime
// peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	resetHWM()
}

// resetHWM resets the kernel's peak-RSS mark (VmHWM) to the current
// resident set.
func resetHWM() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the peak resident set since the last resetPeakRSS (the
// kernel's VmHWM), or the lifetime peak from getrusage where
// /proc/self/status cannot be read.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(readUsage().maxRSSk) / 1024
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies the regular files of src (one level, as a journal
// directory is laid out) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
