package modelcheck

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
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
// over the CI-pinned exhaustion: the explorer stores its states in recycled
// snapshots, hashes them through one buffer and restores them into engines that
// keep their scratch, so what is left is two marshalled PCG streams per node
// (child snapshot and round-trip snapshot; go.mod's 1.22 has no AppendBinary),
// the frontier entry and its schedule link — about 11 objects, 111 before the
// storage discipline. The bench ledger reports the same count as
// allocs_per_op on mc-exhaust; this is where `go test` sees it.
func TestExplorerAllocsPerState(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	if testing.Short() {
		t.Skip("a full exhaustion")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := exhaustTwoWorm(t, 1)
	runtime.ReadMemStats(&after)
	if rep.States != 18921 {
		t.Fatalf("exhausted %d states, pinned 18921", rep.States)
	}
	const ceiling = 25
	perState := float64(after.Mallocs-before.Mallocs) / float64(rep.States)
	t.Logf("%.2f objects a state", perState)
	if perState > ceiling {
		t.Errorf("the exhaustion allocates %.2f objects a state, ceiling %d", perState, ceiling)
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
		x.violation(x.stack[0], "forced", "reported by the test before Run")
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
