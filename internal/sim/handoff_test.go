package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// The between-cycles hand-off (await, workerSlot.signal): a worker that
// finished a cycle spins, then yields, then parks, and Step must start its
// next cycle from whichever stage it reached — exactly once.

// allParked reports whether every worker of e sleeps in its slot.
func allParked(e *Engine) bool {
	for i := range e.par.workers {
		if !e.par.workers[i].parked.Load() {
			return false
		}
	}
	return true
}

// TestHandoffWakeFromEveryStage steps a pooled engine with pauses between
// cycles drawn from {0, 20 us, 2 ms, 30 ms}, so Step finds its workers
// spinning, yielding and parked, at 2, 3, 4 and 7 shards with a P per shard
// and without. A lost cycle would hang the run at its first barrier and a
// doubled one corrupt it; the whole run must be the serial reference's, event
// by event. The test also requires that Steps of both kinds happened: some
// found every worker parked, some found one that was not.
func TestHandoffWakeFromEveryStage(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	const row = "faults-storm"
	cfg, want := equivalenceConfigs()[row], serialReference(t)[row]
	for _, procs := range []int{2, 4} {
		if procs > runtime.NumCPU() && raceEnabled() {
			// Ps that outnumber the cores turn every spin wait into an OS time
			// slice, and the race detector multiplies that into minutes (on
			// the parent's barrier just the same); CI's runners have four.
			t.Logf("GOMAXPROCS=%d skipped under -race on %d CPUs", procs, runtime.NumCPU())
			continue
		}
		for _, shards := range []int{2, 3, 4, 7} {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("shards=%d GOMAXPROCS=%d", shards, procs)
			cfg.Workers = shards
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tap := &eventTap{}
			e.SetListener(tap)
			rng := rand.New(rand.NewSource(int64(100*procs + shards)))
			var parked, awake int
			for total := cfg.TotalCycles(); e.Now() < total; {
				switch r := rng.Intn(1600); {
				case r == 0:
					time.Sleep(30 * time.Millisecond)
				case r < 8:
					time.Sleep(2 * time.Millisecond)
				case r < 160: // busy: the coordinator keeps its P, as between two Steps of a run
					for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
					}
				}
				if allParked(e) {
					parked++
				} else {
					awake++
				}
				e.Step()
			}
			if parked == 0 || awake == 0 {
				t.Errorf("%s: %d Steps found every worker parked, %d did not; want both kinds", label, parked, awake)
			}
			finishReference(t, label, e, tap, want)
			e.Close()
		}
	}
}

// TestHandoffTwoPooledEngines steps two pooled engines of one process in
// alternating 250-cycle segments — what the bench's traced lanes do — so each
// engine's workers go through the whole spin, yield, park sequence while the
// other engine runs, next to a second set of workers doing the same. Both
// runs must end on the serial digest.
func TestHandoffTwoPooledEngines(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	ref := serialReference(t)
	rows := [2]string{"saturated-alo", "faults-flap"}
	var engines [2]*Engine
	var taps [2]*eventTap
	for i, row := range rows {
		cfg := equivalenceConfigs()[row]
		cfg.Workers = 2
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		engines[i], taps[i] = e, &eventTap{}
		e.SetListener(taps[i])
	}
	for total := engines[0].cfg.TotalCycles(); engines[0].Now() < total; {
		for _, e := range engines {
			for c := 0; c < 250; c++ {
				e.Step()
			}
		}
	}
	for i, row := range rows {
		finishReference(t, row, engines[i], taps[i], ref[row])
	}
}
