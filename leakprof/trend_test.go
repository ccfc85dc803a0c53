package leakprof

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/stack"
)

func observeSeries(t *testing.T, tr *TrendTracker, key string, counts []int) {
	t.Helper()
	at := time.Unix(0, 0)
	for _, c := range counts {
		tr.Observe(at, []*Finding{{Service: "s", Op: "send", Location: key, TotalBlocked: c}})
		at = at.Add(24 * time.Hour)
	}
}

func keyFor(loc string) string {
	return (&Finding{Service: "s", Op: "send", Location: loc}).Key()
}

func TestTrendVerdicts(t *testing.T) {
	tr := &TrendTracker{}
	observeSeries(t, tr, "/leak.go:1", []int{100, 250, 600, 1400})
	observeSeries(t, tr, "/busy.go:2", []int{900, 300, 1100, 200})
	observeSeries(t, tr, "/pool.go:3", []int{500, 520, 490, 505})
	observeSeries(t, tr, "/new.go:4", []int{100})

	cases := map[string]TrendVerdict{
		"/leak.go:1": TrendGrowing,
		"/busy.go:2": TrendOscillating,
		"/pool.go:3": TrendStable,
		"/new.go:4":  TrendUnknown,
	}
	for loc, want := range cases {
		if got := tr.Verdict(keyFor(loc)); got != want {
			t.Errorf("%s: verdict = %v, want %v", loc, got, want)
		}
	}
	growing := tr.Growing()
	if len(growing) != 1 || growing[0] != keyFor("/leak.go:1") {
		t.Errorf("growing = %v", growing)
	}
}

func TestTrendVerdictStrings(t *testing.T) {
	for v, want := range map[TrendVerdict]string{
		TrendUnknown: "unknown", TrendGrowing: "growing",
		TrendOscillating: "oscillating", TrendStable: "stable",
	} {
		if got := v.String(); got != want {
			t.Errorf("verdict %d = %q, want %q", v, got, want)
		}
	}
}

// The fleet-driven trend test lives in integration_test.go at the module
// root (importing internal/fleet here would create an import cycle in
// the test binary).

// TestTrendTakeNew pins the delta-export contract: TakeNew returns
// exactly the observations recorded since the last TakeNew, restores are
// never pending, and the full history stays exportable.
func TestTrendTakeNew(t *testing.T) {
	tr := &TrendTracker{}
	if got := tr.TakeNew(); got != nil {
		t.Fatalf("fresh tracker TakeNew = %+v, want nil", got)
	}
	observeSeries(t, tr, "/a.go:1", []int{100, 200})
	delta := tr.TakeNew()
	if got := len(delta[keyFor("/a.go:1")]); got != 2 {
		t.Fatalf("first delta = %d observations, want 2", got)
	}
	if got := tr.TakeNew(); got != nil {
		t.Fatalf("second TakeNew = %+v, want nil (drained)", got)
	}

	tr.Observe(time.Unix(0, 0).Add(48*time.Hour), []*Finding{{Service: "s", Op: "send", Location: "/a.go:1", TotalBlocked: 400}})
	delta = tr.TakeNew()
	if got := delta[keyFor("/a.go:1")]; len(got) != 1 || got[0].Total != 400 {
		t.Fatalf("incremental delta = %+v, want only the new observation", got)
	}
	// Full history is unaffected by the delta drain.
	if got := len(tr.Export()[keyFor("/a.go:1")]); got != 3 {
		t.Fatalf("history after TakeNew = %d observations, want 3", got)
	}

	// Restored history is not a delta: it came from the journal.
	tr2 := &TrendTracker{}
	tr2.Restore(tr.Export())
	if got := tr2.TakeNew(); got != nil {
		t.Fatalf("TakeNew after Restore = %+v, want nil", got)
	}
}

// TestTrendRetention pins the retention window: appends, restores, and
// exports all hold at most Retention observations per key, keeping the
// most recent ones, and verdicts run on the retained window.
func TestTrendRetention(t *testing.T) {
	tr := &TrendTracker{Retention: 3, MinObservations: 2}
	observeSeries(t, tr, "/leak.go:1", []int{10, 20, 40, 80, 160, 320})
	hist := tr.Export()[keyFor("/leak.go:1")]
	if len(hist) != 3 {
		t.Fatalf("retained history = %d observations, want 3", len(hist))
	}
	if hist[0].Total != 80 || hist[2].Total != 320 {
		t.Fatalf("retained window = %+v, want the most recent [80 160 320]", hist)
	}
	// Verdicts still work on the window.
	if v := tr.Verdict(keyFor("/leak.go:1")); v != TrendGrowing {
		t.Errorf("verdict on retained window = %v, want growing", v)
	}

	// Restore trims long histories too.
	long := map[string][]TrendObservation{"k": make([]TrendObservation, 10)}
	for i := range long["k"] {
		long["k"][i] = TrendObservation{At: time.Unix(int64(i), 0), Total: i}
	}
	tr2 := &TrendTracker{Retention: 4}
	tr2.Restore(long)
	if got := len(tr2.Export()["k"]); got != 4 {
		t.Fatalf("restored history = %d observations, want 4", got)
	}
	if first := tr2.Export()["k"][0].Total; first != 6 {
		t.Fatalf("restored window starts at total %d, want 6 (most recent 4)", first)
	}
}

// TestTrendRetentionShiftsInPlace drives keys through 3x Retention
// sweeps — every append past the first Retention trims in place — and
// checks each history is exactly the last Retention observations in
// order, while ExportStable and TakeNew still split off exactly the
// pending suffix.
func TestTrendRetentionShiftsInPlace(t *testing.T) {
	const retention = 5
	tr := &TrendTracker{Retention: retention}
	tr.TakeNew() // arm delta tracking, as StateStore does at open
	locs := []string{"/a.go:1", "/b.go:2"}
	keys := []string{keyFor(locs[0]), keyFor(locs[1])}
	at := func(day int) time.Time { return time.Unix(0, 0).Add(time.Duration(day) * 24 * time.Hour).UTC() }
	var drained map[string][]TrendObservation
	for day := 1; day <= 3*retention; day++ {
		for i, loc := range locs {
			tr.ObserveMoments(at(day), []Moment{{
				Service: "s", Op: stack.BlockedOp{Op: "send", Location: loc},
				Total: 100*i + day, ServiceProfiles: 4, SumSquares: float64(day),
			}})
		}
		if day == 2*retention+2 {
			drained = tr.TakeNew()
		}
	}
	if got := len(drained[keys[0]]); got != 2*retention+2 {
		t.Fatalf("drained delta = %d observations, want %d", got, 2*retention+2)
	}
	pendingDays := 3*retention - (2*retention + 2) // recorded after the drain
	full := tr.Export()
	stable := tr.ExportStable(keys)
	pending := tr.TakeNew()
	for i, key := range keys {
		hist := full[key]
		if len(hist) != retention {
			t.Fatalf("%s: history = %d observations, want %d", key, len(hist), retention)
		}
		for j, o := range hist {
			day := 2*retention + 1 + j
			if !o.At.Equal(at(day)) || o.Total != 100*i+day || o.Profiles != 4 || o.SumSquares != float64(day) {
				t.Fatalf("%s: history[%d] = %+v, want day %d", key, j, o, day)
			}
		}
		if got, want := stable[key], hist[:retention-pendingDays]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ExportStable = %+v, want %+v", key, got, want)
		}
		if got, want := pending[key], hist[retention-pendingDays:]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TakeNew = %+v, want %+v", key, got, want)
		}
	}
}

// TestTrendRecordAtRetentionAllocs pins the steady-state append: a key
// whose history is already at Retention records without allocating.
func TestTrendRecordAtRetentionAllocs(t *testing.T) {
	tr := &TrendTracker{Retention: 30}
	key := keyFor("/hot.go:1")
	for i := 0; i < 30; i++ {
		tr.record(key, observation{at: int64(i), total: i})
	}
	i := 30
	allocs := testing.AllocsPerRun(100, func() {
		tr.record(key, observation{at: int64(i), total: i})
		i++
	})
	if allocs != 0 {
		t.Errorf("record at Retention: %.0f allocs/op, want 0", allocs)
	}
	if hist := tr.Export()[key]; len(hist) != 30 || hist[29].Total != i-1 {
		t.Fatalf("history = %d observations ending %+v, want 30 ending at total %d", len(hist), hist[len(hist)-1], i-1)
	}
}

// TestTrendExportTimesMatchJournal pins exported timestamps to what the
// binary journal returns for them — UTC at nanosecond precision, the zero
// time kept zero — so a live tracker and one recovered from its journal
// export identical values.
func TestTrendExportTimesMatchJournal(t *testing.T) {
	roundTrip := func(at time.Time) time.Time {
		got, err := frame.NewReader(frame.AppendTime(nil, at)).Time()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	cases := map[string]time.Time{
		"/utc.go:1":   time.Date(2026, 3, 1, 4, 5, 6, 789, time.UTC),
		"/local.go:2": time.Date(2026, 3, 1, 4, 5, 6, 789, time.FixedZone("UTC+5:30", 5*3600+1800)),
		"/zero.go:3":  {},
	}
	dir := t.TempDir()
	store, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for loc, at := range cases {
		store.Tracker().Observe(at, []*Finding{{Service: "s", Op: "send", Location: loc, TotalBlocked: 7}})
	}
	if err := store.RecordSweep(&Sweep{At: time.Unix(0, 0), Source: "test", Profiles: 1}); err != nil {
		t.Fatal(err)
	}
	live := store.Tracker().Export()
	for loc, at := range cases {
		got := live[keyFor(loc)]
		if len(got) != 1 || got[0].At != roundTrip(at) {
			t.Errorf("%s: exported %+v, want At %v (the journal round trip of %v)", loc, got, roundTrip(at), at)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recovered := re.Tracker().Export(); !reflect.DeepEqual(recovered, live) {
		t.Errorf("recovered export = %+v, want the live export %+v", recovered, live)
	}
}
