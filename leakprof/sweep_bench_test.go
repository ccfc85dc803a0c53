package leakprof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gprofile"
	"repro/internal/report"
	"repro/internal/stack"
)

// BenchmarkSweepCriticalPath measures what this package ultimately sells:
// the wall-clock cost of one Pipeline.Sweep at a 100K-key steady state
// with the production sink set attached — report (bug filing against the
// durable DB), trend, and a write-through archive — and the state journal
// recording every sweep.
//
// Two configurations bracket the durability critical path:
//
//   - attached-sync-every-sweep is the PR-4 baseline: JSON frames, one
//     fsync inside every RecordSweep, and the sweep blocked at the sink
//     drain barrier until the slowest sink (the archive disk) finishes.
//   - detached-group-commit is the current fast path: binary frames,
//     group commit (one fsync per 16-sweep window, off the critical
//     path), and detached sinks whose lag spans sweeps.
//
// The fsyncs/op metric is the group-commit acceptance probe (one per
// window, not one per sweep); journal-KB/op tracks the codec's frame
// size on the same run, and archive-KB/sweep the write-through archive's
// on-disk cost per sweep — with pre-aggregated clusters written as
// count-annotated records (one record per cluster instead of thousands
// of expanded blocks), both this metric and the sweep's allocs/op fall
// by orders of magnitude at bench fleet scale.
func BenchmarkSweepCriticalPath(b *testing.B) {
	const (
		trackedKeys = 100_000
		sweepKeys   = 10
		instances   = 8
	)
	baseTime := time.Unix(0, 0)

	// seedState builds the steady state: a journal already tracking 100K
	// keys, compacted to one snapshot segment.
	seedState := func(b *testing.B, dir string, codec StateCodec) {
		b.Helper()
		store, err := OpenStateStore(dir, StateFrameCodec(codec), StateTrendRetention(30))
		if err != nil {
			b.Fatal(err)
		}
		findings := make([]*Finding, trackedKeys)
		for i := range findings {
			findings[i] = &Finding{
				Service: "svc", Op: "send",
				Location:     fmt.Sprintf("/svc/f%05d.go:1", i),
				TotalBlocked: 1000,
			}
			store.BugDB().File(report.Bug{
				Key: findings[i].Key(), Service: "svc", Op: "send",
				Location: findings[i].Location, FiledAt: baseTime,
				BlockedGoroutines: 1000,
			})
		}
		store.Tracker().Observe(baseTime, findings)
		if err := store.Save(); err != nil {
			b.Fatal(err)
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}

	// The sweep's input: a small fleet whose instances all report the
	// same ten hot locations — the delta a quiet production day writes.
	snaps := make([]*gprofile.Snapshot, instances)
	for i := range snaps {
		pre := make(map[stack.BlockedOp]int, sweepKeys)
		for k := 0; k < sweepKeys; k++ {
			pre[stack.BlockedOp{Op: "send", Function: "svc.leak", Location: fmt.Sprintf("/svc/f%05d.go:1", k)}] = 2000
		}
		snaps[i] = &gprofile.Snapshot{Service: "svc", Instance: fmt.Sprintf("i%02d", i), PreAggregated: pre}
	}

	run := func(b *testing.B, codec StateCodec, opts ...Option) {
		stateDir, archiveDir := b.TempDir(), b.TempDir()
		seedState(b, stateDir, codec)
		day := 0
		opts = append(opts,
			WithThreshold(1000),
			WithStateDir(stateDir),
			WithStateCodec(codec),
			WithTrendRetention(30),
			WithClock(func() time.Time { return baseTime.Add(time.Duration(day) * 24 * time.Hour) }),
		)
		pipe := New(opts...)
		store, err := pipe.State()
		if err != nil {
			b.Fatal(err)
		}
		archive, err := NewSweepArchiveSink(archiveDir, KeepSweeps(4))
		if err != nil {
			b.Fatal(err)
		}
		pipe.AddSinks(
			&ReportSink{Reporter: &Reporter{DB: store.BugDB(), TopN: 10}},
			&TrendSink{Tracker: store.Tracker()},
			archive,
		)
		src := FromSnapshots(snaps)
		startBytes, startSyncs := store.journalBytesAppended(), store.journalSyncs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			day = i + 1
			if _, err := pipe.Sweep(context.Background(), src); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := pipe.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(store.journalSyncs()-startSyncs)/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(store.journalBytesAppended()-startBytes)/float64(b.N)/1024, "journal-KB/op")
		// The compaction pause: wall time sweeps spent inside the fold's
		// under-lock stage (key capture + reservation). The fold itself
		// (value fetch, snapshot encode, segment write) runs off-lock.
		if folds, pause := store.journalFoldPause(); folds > 0 {
			b.ReportMetric(float64(pause.Microseconds())/float64(folds), "fold-pause-us/fold")
			b.ReportMetric(float64(folds)/float64(b.N), "folds/op")
		}
		// The archive keeps the last KeepSweeps sweep directories; the
		// per-sweep metric averages over whatever is retained.
		var archiveBytes int64
		sweepDirs := 0
		if entries, err := os.ReadDir(archiveDir); err == nil {
			for _, e := range entries {
				if !e.IsDir() {
					continue
				}
				sweepDirs++
				members, err := os.ReadDir(filepath.Join(archiveDir, e.Name()))
				if err != nil {
					continue
				}
				for _, m := range members {
					if info, err := m.Info(); err == nil {
						archiveBytes += info.Size()
					}
				}
			}
		}
		if sweepDirs > 0 {
			b.ReportMetric(float64(archiveBytes)/float64(sweepDirs)/1024, "archive-KB/sweep")
		}
	}

	b.Run("attached-sync-every-sweep", func(b *testing.B) {
		run(b, StateCodecJSON, WithStateSync(SyncEverySweep))
	})
	b.Run("detached-group-commit", func(b *testing.B) {
		run(b, StateCodecBinary, WithStateSync(SyncEvery(16, 0)), WithDetachedSinks())
	})
	// fold-pause forces the journal to roll and fold continuously
	// (1-byte segment budget, 2-segment cap at a 100K-key state) so
	// fold-pause-us/fold measures the incremental export's under-lock
	// capture — the pause the full-copy fold design spent copying the
	// whole DB and trend history.
	b.Run("fold-pause", func(b *testing.B) {
		run(b, StateCodecBinary, WithStateSync(SyncEvery(16, 0)), WithDetachedSinks(),
			WithStateCompaction(1, 2))
	})
}

// BenchmarkTrendSweep measures the trend tail of one daily sweep at the
// pull plane's steady state: export ~20K groups' moments from the
// aggregator (the sort every shard report and coordinator sweep pays)
// and record them into a tracker restored with 100K keys, every one
// already at a 30-sweep retention window.
func BenchmarkTrendSweep(b *testing.B) {
	const (
		trackedKeys = 100_000
		groups      = 20_000
		retention   = 30
	)
	loc := func(i int) string { return fmt.Sprintf("/svc/pkg/handler%06d.go:%d", i, 40+i%9) }
	service := func(i int) string { return fmt.Sprintf("svc%02d", i%16) }

	tr := &TrendTracker{Retention: retention}
	history := make([]TrendObservation, retention)
	for d := range history {
		history[d] = TrendObservation{At: time.Unix(int64(d)*86400, 0), Total: 100 + d, Profiles: 8, SumSquares: 2000}
	}
	restore := make(map[string][]TrendObservation, trackedKeys)
	for i := 0; i < trackedKeys; i++ {
		// Restore copies each history, so every key can share one.
		restore[(&Finding{Service: service(i), Op: "receive", Location: loc(i)}).Key()] = history
	}
	tr.Restore(restore)

	agg := NewAggregator(DefaultThreshold)
	moments := make([]Moment, groups)
	services := map[string]int{}
	for i := range moments {
		moments[i] = Moment{
			Service: service(i),
			Op:      stack.BlockedOp{Op: "receive", Location: loc(i), Function: fmt.Sprintf("svc/pkg.handler%06d", i)},
			Total:   50 + i%200, Instances: 4, SumSquares: float64(i % 5000),
			MaxCount: 20 + i%100, MaxInstance: "i0",
		}
		services[service(i)] = 8
	}
	agg.MergeMoments(services, 8*len(services), moments)

	at := time.Unix(retention*86400, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveMoments(at, agg.Moments())
		at = at.Add(24 * time.Hour)
	}
	b.StopTimer()
	if got := len(tr.Keys()); got != trackedKeys {
		b.Fatalf("tracker holds %d keys, want %d", got, trackedKeys)
	}
}
