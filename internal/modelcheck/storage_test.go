package modelcheck

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"wormnet/internal/sim"
)

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestExplorerAllocsPerState pins what a visited state costs in heap objects
// over the CI-pinned exhaustion, at GOMAXPROCS 1 and 2: the explorer stores
// its states in recycled frontier entries and snapshots, cuts schedule links
// from slabs that double up to 1 024 links, hashes through two buffers and
// restores into engines that keep their scratch (VerifyInjectionProperty's
// and held's included), and a snapshot saves its generators' streams and
// limiters' words into its own storage (a stream that has not moved keeps the
// bytes already there; at rate 0 none moves), and Engine.Inject draws its
// messages from the engine's pool. A new snapshot cuts its node and channel
// fields from one array each, and a VC is a run of fixed size, so a recycled
// one never regrows; an engine builds its config digest in two objects. A new
// task log is one object, made at the length of the longest log so far; a
// worker holds at most maxBacklog+1 of them, and the workers' spare entries go
// through one pool, so two workers make about as many logs and carve about as
// many snapshots as their stacks hold at once. Measured 0.025 objects a state
// at one worker and 0.041-0.042 at two, after a first exhaustion has built the
// process's caches: 1.65-1.70 times the one worker's count. The second worker
// builds its own two engines, round-trip snapshot and check scratch (about 150
// objects, a third of the one worker's 465) and carves the entries of its stack
// (about 20 objects a snapshot) and fills its own logs, so a ratio of 1.3 does
// not hold on this model; the ratio pinned is the expected 0.040 a state at two
// workers over the measured 0.0246 at one (1.63), + 10 %. 0.03 and 0.05-0.06
// while spare entries stayed with the worker that recycled them and logs piled
// up behind the committer, 0.06 and 0.10-0.12 while every channel of a new
// snapshot grew its own slice and links came in slabs of 64, 0.24 while every
// injection built a message, 8.24 while every snapshot marshalled one PCG
// stream per node and 111 before the storage discipline. The bench ledger
// reports the two-worker count as allocs_per_op on mc-exhaust; this is where
// `go test` sees it.
func TestExplorerAllocsPerState(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	if testing.Short() {
		t.Skip("two full exhaustions")
	}
	const (
		ceiling = 0.045 // 0.041 measured at two workers, + 10 %
		ratio   = 1.79  // 0.040 expected at two workers over 0.0246 at one, + 10 %
	)
	exhaustTwoWorm(t, 1) // the shape cache and the like, built once a process
	var perState [3]float64
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep := exhaustTwoWorm(t, 1)
			runtime.ReadMemStats(&after)
			if rep.States != 18921 {
				t.Fatalf("GOMAXPROCS=%d: exhausted %d states, pinned 18921", procs, rep.States)
			}
			perState[procs] = float64(after.Mallocs-before.Mallocs) / float64(rep.States)
			t.Logf("GOMAXPROCS=%d: %.4f objects a state", procs, perState[procs])
			if perState[procs] > ceiling {
				t.Errorf("GOMAXPROCS=%d: the exhaustion allocates %.4f objects a state, ceiling %.3f", procs, perState[procs], ceiling)
			}
		}()
	}
	if r := perState[2] / perState[1]; r > ratio {
		t.Errorf("two workers allocate %.2f times what one does, ceiling %.2f", r, ratio)
	}
}

// TestCanonicalBytesPerState pins the size of what the explorer hashes for
// each state of the CI-pinned exhaustion: the canonical form of every
// round-trip snapshot, one per edge. A snapshot stores only what the engine
// cannot derive, so that is all the form holds: measured 1 064.7 bytes a
// state, 1 193.2 while snapshots also stored each flit, each output VC's
// owner, each message's whole path and an injection channel's copy of its
// message's destination and length. The run is at one worker, where the hook sees
// each edge once.
func TestCanonicalBytesPerState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	x, err := New(twoWormSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var canon sim.CanonBuf
	var n, total int
	x.onRoundTrip = func(_ *entry, rt *sim.Snapshot) {
		b, err := canon.Bytes(rt)
		if err != nil {
			t.Error(err)
		}
		n, total = n+1, total+len(b)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 18921 || int64(n) != rep.Edges {
		t.Fatalf("%d states and %d edges, %d round trips; pinned 18921 states, a round trip an edge", rep.States, rep.Edges, n)
	}
	perState := float64(total) / float64(n)
	t.Logf("%d round trips, %.1f canonical bytes a state", n, perState)
	const measured = 1065
	if perState > measured {
		t.Errorf("%.1f canonical bytes a state, pinned %d", perState, measured)
	}
}

// TestExplorerRestoresOncePerState pins the swap: a new state's round trip
// restores it into aux, which then becomes the engine its first edge steps
// from, so a state is restored about once (its first edge reuses the round
// trip's engine, its others restore it into work) instead of twice, on the
// CI-pinned model and on the ring with its probes, at one shard and two.
func TestExplorerRestoresOncePerState(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"two-worm", twoWormSpec()}, {"ring", boundedRing(5000)}} {
		for _, workers := range []int{1, 2} {
			x, err := New(tc.spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			x.cfg.Workers = workers
			rep, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("%s, workers=%d: exploration failed:\n%s", tc.name, workers, rep.Format())
			}
			restores := x.RunStats().Restores
			perState := float64(restores) / float64(rep.States)
			t.Logf("%s, workers=%d: %d restores for %d states over %d edges (%.3f a state)",
				tc.name, workers, restores, rep.States, rep.Edges, perState)
			if perState > 1.2 {
				t.Errorf("%s, workers=%d: %.3f restores a state, ceiling 1.2", tc.name, workers, perState)
			}
		}
	}
}

// TestRoundTripMismatchIsNotReused corrupts one round-trip snapshot: the root's
// last child, the entry expanded next. The run must report exactly that one
// snapshot-roundtrip violation, restore that entry for its expansion instead
// of stepping from the engine whose round trip failed (one restore more than
// a clean run) and still visit every state of the model. Both runs have one
// worker (GOMAXPROCS 1), where the restore count is exact: at several, a worker
// that yields to the task the committer waits for gives up the engine it
// holds, a restore more or less from run to run.
func TestRoundTripMismatchIsNotReused(t *testing.T) {
	if testing.Short() {
		t.Skip("two full exhaustions")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(corrupt bool) (*Report, int) {
		x, err := New(twoWormSpec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool // workers round-trip on their own goroutines
		done.Store(!corrupt)
		x.onRoundTrip = func(child *entry, rt *sim.Snapshot) {
			if child.schedule.len() == 1 && child.used == 3 && done.CompareAndSwap(false, true) {
				rt.Now++
			}
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !done.Load() {
			t.Fatal("the root's last child was never round-tripped")
		}
		return rep, x.RunStats().Restores
	}
	clean, cleanRestores := run(false)
	rep, restores := run(true)
	if len(rep.Violations) != 1 || !strings.HasPrefix(rep.Violations[0], "snapshot-roundtrip at depth 1: ") {
		t.Fatalf("violations %q, want one snapshot-roundtrip at depth 1", rep.Violations)
	}
	if restores != cleanRestores+1 {
		t.Errorf("%d restores, a clean run %d: the entry whose round trip failed was not restored for its expansion",
			restores, cleanRestores)
	}
	if rep.States != 18921 || !rep.Exhausted {
		t.Errorf("%d states (exhausted %v), pinned 18921", rep.States, rep.Exhausted)
	}
	rep.Violations, rep.Counterexamples = nil, nil
	rep.Spec, clean.Spec = Spec{}, Spec{}
	if r, c := fmt.Sprintf("%+v", *rep), fmt.Sprintf("%+v", *clean); r != c {
		t.Errorf("beyond the violation, the report differs from a clean run's:\n %s\n %s", r, c)
	}
}

// TestCounterexampleKeepsItsSnapshot is the ownership rule seen from outside: a
// snapshot a Counterexample holds is out of circulation. A synthetic-miss run
// emits a counterexample at every deadlock state and goes on exploring — and
// recycling — for thousands of states; when Run returns, every counterexample
// collected on the way must still hash to what it hashed when it was emitted
// and replay through Counterexample.Replay, with the dump directory set and
// without it, and the dumped files must say the same.
func TestCounterexampleKeepsItsSnapshot(t *testing.T) {
	dir := t.TempDir()
	var reports []string
	for _, cxDir := range []string{dir, ""} {
		x, err := New(boundedRing(4000), Options{SyntheticMiss: true, CounterexampleDir: cxDir})
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			cx   *Counterexample
			hash [32]byte
		}
		var emitted []held
		x.onCounterexample = func(cx *Counterexample) {
			h, err := cx.Snap.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			emitted = append(emitted, held{cx, h})
		}
		// A false negative is minimized, which re-materializes its snapshot; a
		// per-state violation keeps the very snapshot of the entry it reports.
		// Force one on the root, the first entry expanded and recycled.
		x.violation(x.stack[0].schedule, x.stack[0].gt, "forced", "reported by the test before Run")
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) < 2 || len(emitted) != 1+int(rep.FalseNegatives) || emitted[0].cx.Kind != "forced" {
			t.Fatalf("dir=%q: %d counterexamples collected for the forced violation and %d false negatives",
				cxDir, len(emitted), rep.FalseNegatives)
		}
		if rep.States < 2*len(emitted) {
			t.Fatalf("dir=%q: only %d states for %d counterexamples; nothing was recycled after them", cxDir, rep.States, len(emitted))
		}
		for i, h := range emitted {
			now, err := h.cx.Snap.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			if now != h.hash {
				t.Errorf("dir=%q: counterexample %d hashed %x when emitted and %x after Run: its snapshot was recycled",
					cxDir, i+1, h.hash[:8], now[:8])
			}
			// A synthetic miss records a deadlock the real detector catches, so
			// a consistent counterexample replays as fixed. A violation has no
			// such criterion: once its state and ground truth have replayed as
			// recorded, Replay hands it to a human.
			err = h.cx.Replay()
			if h.cx.Kind == "forced" && err != nil && strings.Contains(err.Error(), "reproduces at the recorded state") {
				err = nil
			}
			if err != nil {
				t.Errorf("dir=%q: counterexample %d does not replay after Run: %v", cxDir, i+1, err)
			}
			if cxDir == "" {
				continue
			}
			files, err := filepath.Glob(filepath.Join(cxDir, fmt.Sprintf("cx-%03d-*.wncp", i+1)))
			if err != nil || len(files) != 1 {
				t.Fatalf("counterexample %d: dumped files %v (err %v)", i+1, files, err)
			}
			onDisk, err := ReadCounterexample(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if dh, err := onDisk.Snap.CanonicalHash(); err != nil || dh != h.hash {
				t.Errorf("counterexample %d: the dumped snapshot hashes %x, the emitted one %x (err %v)", i+1, dh[:8], h.hash[:8], err)
			}
		}
		rep.Spec = Spec{}
		reports = append(reports, fmt.Sprintf("%+v", *rep))
	}
	if reports[0] != reports[1] {
		t.Errorf("reports differ with and without a dump directory:\n %s\n %s", reports[0], reports[1])
	}
}
