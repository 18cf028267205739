package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wormnet/internal/baseline"
	"wormnet/internal/fault"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// eventTap records every lifecycle event in order. Unlike trace.Recorder it
// keeps the full stream, so two runs can be compared event by event.
type eventTap struct {
	events []trace.Event
}

func (l *eventTap) Emit(ev trace.Event) { l.events = append(l.events, ev) }

// runTraced runs cfg to completion at the given worker count and returns the
// summary, the per-class results (nil unless an adversary is configured),
// the full event stream, and the engine's all-time counters.
func runTraced(t *testing.T, cfg Config, workers int) (stats.Result, []stats.ClassResult, []trace.Event, [6]int64) {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tap := &eventTap{}
	e.SetListener(tap)
	r := e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("workers=%d: invariants violated at end of run: %v", workers, err)
	}
	counters := [6]int64{
		e.Generated(), e.Delivered(), e.Recovered(),
		e.Aborted(), e.Retried(), e.Dropped(),
	}
	return r, e.Collector().ClassResults(), tap.events, counters
}

// equivalenceConfigs returns the seeded scenarios the serial↔parallel
// equivalence suite runs: saturated uniform traffic with active deadlock
// recovery, bursty traffic under the ALO limiter, and a fault schedule
// exercising kills, retries, unreachable drops and repair.
func equivalenceConfigs() map[string]Config {
	// Saturated uniform, no limiter: past saturation TFAR deadlocks and
	// recoveries fire (the golden digest pins DeadlockPct > 0 here).
	saturated := QuickConfig()
	saturated.Rate = 2.0
	saturated.Limiter = baseline.Factories()["none"]
	saturated.LimiterName = "none"

	// The paper's regime: uniform traffic far beyond saturation under ALO, so
	// every source queue backs up and the gate denies hundreds of heads a
	// cycle (40 333 throttle events in the reference).
	saturatedALO := QuickConfig()
	saturatedALO.Rate = 2.0

	bursty := QuickConfig()
	bursty.Rate = 1.2
	bursty.Burst = traffic.BurstProfile{OnMean: 200, OffMean: 400}

	up := topology.PortFor(0, topology.Plus)
	faulty := QuickConfig()
	faulty.Rate = 0.8
	faulty.Faults = (&fault.Schedule{}).
		FailLink(2200, 1, up).RestoreLink(4800, 1, up).
		FailRouter(3000, 5).RestoreRouter(6500, 5)

	// Fault-cycle-heavy: saturated traffic (recoveries fire throughout) under
	// a dense, staggered link/router schedule, so nearly every cycle runs the
	// fault path and the allocation phase keeps crossing between its parallel
	// prefix and serial suffix (kills, retries, unreachable drops, repairs and
	// watermark-predicted recoveries all interleave).
	storm := QuickConfig()
	storm.Rate = 2.0
	storm.Limiter = baseline.Factories()["none"]
	storm.LimiterName = "none"
	sched := &fault.Schedule{}
	down := topology.PortFor(1, topology.Minus)
	for i := 0; i < 6; i++ {
		at := int64(1200 + 700*i)
		n := topology.NodeID(2*i + 1)
		sched.FailLink(at, n, up).RestoreLink(at+500, n, up)
		sched.FailLink(at+250, n, down).RestoreLink(at+950, n, down)
	}
	sched.FailRouter(2600, 9).RestoreRouter(5200, 9)
	storm.Faults = sched

	// Flapping faults: planner-generated down→repair→re-down cycles, so the
	// suite pins the online reconfiguration path (epoch flips on every
	// transition, healed capacity re-admitted, then yanked again) across
	// worker counts.
	flap := QuickConfig()
	flap.Rate = 0.8
	flapSched, err := fault.Plan(topology.New(flap.K, flap.N), fault.Profile{
		LinkFraction:      0.05,
		RouterFraction:    0.05,
		At:                1500,
		Stagger:           400,
		TransientFraction: 1.0,
		RepairAfter:       350,
		FlapCount:         2,
		FlapPeriod:        900,
		Seed:              11,
	})
	if err != nil {
		panic(err)
	}
	flap.Faults = flapSched

	// Adversarial: rogue nodes bypassing the ALO limiter with duty-cycled
	// hotspot storms, on top of a link-flap schedule — the per-class
	// accounting and the rogue bypass must be bit-identical too.
	adv := QuickConfig()
	adv.Rate = 0.6
	adv.Adversary = AdversaryProfile{
		RogueFraction: 0.15,
		RogueRate:     1.5,
		StormPeriod:   600,
		StormOn:       250,
		Hotspot:       5,
		Seed:          3,
	}
	adv.Faults = (&fault.Schedule{}).
		FailLink(2000, 3, up).RestoreLink(2600, 3, up).
		FailLink(3400, 3, up).RestoreLink(4000, 3, up)

	return map[string]Config{
		"saturated-recovery": saturated,
		"saturated-alo":      saturatedALO,
		"bursty-alo":         bursty,
		"faults-retry":       faulty,
		"faults-storm":       storm,
		"faults-flap":        flap,
		"adversarial":        adv,
	}
}

// TestGoldenParallelEquivalence is the determinism contract of the sharded
// engine: for every scenario, every worker count — one shard included — must
// reproduce the recorded serial reference (reference_test.go) bit for bit:
// the same summary statistics, the same all-time counters, and the *same
// trace event stream*, event by event in the same order. The event stream is
// the strongest practical probe of message-level equality: it pins the id,
// source, destination, cycle and location of every generation, injection,
// throttle, deadlock, recovery, fault kill, retry, drop and delivery of the
// run.
func TestGoldenParallelEquivalence(t *testing.T) {
	ref := serialReference(t)
	for name, cfg := range equivalenceConfigs() {
		cfg, want := cfg, ref[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if want.Events == 0 {
				t.Fatal("reference run emitted no events; scenario is vacuous")
			}
			for _, workers := range []int{1, 2, 3, 4, 7} {
				runReference(t, fmt.Sprintf("workers=%d", workers), cfg, workers, want)
			}
		})
	}
}

// TestParallelInvariants interleaves parallel Steps with the full invariant
// checker, including a drain phase. The checker also validates that the
// parallel runtime's deferral buffers are empty between cycles.
func TestParallelInvariants(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 1.5
	cfg.Limiter = baseline.Factories()["none"]
	cfg.LimiterName = "none"
	cfg.Workers = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for c := 0; c < 2000; c++ {
		e.Step()
		if c%250 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", e.Now(), err)
			}
		}
	}
	e.StopSources()
	for c := 0; c < 4000 && e.InFlight() > 0; c++ {
		e.Step()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if fl := e.InFlight(); fl != 0 {
		t.Fatalf("%d messages stuck after drain", fl)
	}
}

// TestParallelWorkerClamp checks the degenerate partitions: more workers
// than nodes clamps to one shard per node, and a single-node-per-shard
// engine still reproduces serial results.
func TestParallelWorkerClamp(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 0.6
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 1000, 200
	base, _, _, _ := runTraced(t, cfg, 1)
	over, _, _, _ := runTraced(t, cfg, 1000) // 16 nodes: clamps to 16 shards
	if over != base {
		t.Errorf("overclamped run diverged:\n got  %+v\n want %+v", over, base)
	}
}

// TestOneShardOnOneP: on a single-P host New builds one shard whatever Workers
// says — shards could only time-slice the one P, and one shard gives the same
// bits — so the engine starts no worker goroutine and still reproduces the
// serial reference.
func TestOneShardOnOneP(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(1)

	const row = "faults-storm"
	cfg, want := equivalenceConfigs()[row], serialReference(t)[row]
	for _, workers := range []int{2, 4} {
		label := fmt.Sprintf("workers=%d on one P", workers)
		cfg.Workers = workers
		base := runtime.NumGoroutine()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(e.par.shards); got != 1 {
			t.Errorf("%s: %d shards, want 1", label, got)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines after New, %d before", label, got, base)
		}
		finishReference(t, label, e, &eventTap{}, want)
		e.Close()
	}
}

// TestParallelCloseMidRun closes the worker pool at cycle 1 000 of a
// four-shard run and finishes on the one shard Close re-partitions to — the
// second time with an in-place Snapshot/Restore 1 000 cycles later. Between
// cycles the engine's state does not depend on the partition, so the mixed
// run must reproduce the recorded serial reference bit for bit. Close returns
// only once its workers have exited, whatever they were doing: the goroutine
// count is back at its baseline after a Close straight after New (workers
// spinning, yielding or not yet scheduled), mid-run, and after 50 ms of idling
// (parked).
func TestParallelCloseMidRun(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2) // the pool, on any host

	const row = "faults-storm"
	cfg, want := equivalenceConfigs()[row], serialReference(t)[row]
	cfg.Workers = 4
	base := runtime.NumGoroutine()
	closeAll := func(label string, e *Engine) {
		t.Helper()
		if got := runtime.NumGoroutine(); got != base+3 {
			t.Fatalf("%s: %d goroutines before Close, want %d (three workers)", label, got, base+3)
		}
		e.Close()
		// Close waits for each worker's deferred Done; the runtime retires the
		// goroutine an instant later.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Close, want the baseline %d", label, runtime.NumGoroutine(), base)
			}
		}
	}
	for _, idle := range []time.Duration{0, 50 * time.Millisecond} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(idle)
		closeAll(fmt.Sprintf("unstepped, idle %v", idle), e)
	}
	for _, viaSnapshot := range []bool{false, true} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tap := &eventTap{}
		e.SetListener(tap)
		for e.Now() < 1000 {
			e.Step()
		}
		if len(e.par.shards) != 4 {
			t.Fatalf("engine started on %d shards, want 4", len(e.par.shards))
		}
		closeAll("mid-run", e)
		closed := e.par
		e.Close() // idempotent: the one-shard runtime stays
		if e.par != closed || len(closed.shards) != 1 || closed.workers != nil {
			t.Fatalf("after Close: %d shards, %d workers, runtime replaced by second Close = %v",
				len(e.par.shards), len(e.par.workers), e.par != closed)
		}
		for e.Now() < 2000 {
			e.Step()
		}
		if viaSnapshot {
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		finishReference(t, fmt.Sprintf("close mid-run (snapshot=%v)", viaSnapshot), e, tap, want)
	}
}
