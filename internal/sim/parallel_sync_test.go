package sim

import (
	"runtime"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/metrics"
)

// TestBarrierBudget pins the synchronisation cost of a multi-shard cycle:
// a steady-state cycle (no recovery or fault trigger possible) must cross
// exactly 4 barriers, and even a trigger cycle — where the allocation
// phase splits around the serial suffix — at most 5. The barrier
// generation counter advances by one per barrier, so the per-Step delta
// is the barrier count. GOMAXPROCS is raised so that New builds the four
// shards on any host.
func TestBarrierBudget(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	// Light load under the default limiter: no blockage counter ever nears
	// the detection threshold, so every cycle takes the trigger-free path.
	cfg := QuickConfig()
	cfg.Rate = 0.3
	cfg.Workers = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.par.shards) != 4 {
		t.Fatalf("engine built %d shards, want 4", len(e.par.shards))
	}
	for c := 0; c < 500; c++ {
		before := e.par.bar.gen.Load()
		e.Step()
		if d := e.par.bar.gen.Load() - before; d != 4 {
			t.Fatalf("steady-state cycle %d crossed %d barriers, want 4", c, d)
		}
	}

	// Saturated with recoveries firing: trigger cycles add exactly one
	// barrier for the serial allocation suffix, never more.
	hot := QuickConfig()
	hot.Rate = 2.0
	hot.Limiter = baseline.Factories()["none"]
	hot.LimiterName = "none"
	hot.Workers = 4
	eh, err := New(hot)
	if err != nil {
		t.Fatal(err)
	}
	defer eh.Close()
	saw5 := false
	for c := 0; c < 3000; c++ {
		before := eh.par.bar.gen.Load()
		eh.Step()
		switch d := eh.par.bar.gen.Load() - before; d {
		case 4:
		case 5:
			saw5 = true
		default:
			t.Fatalf("cycle %d crossed %d barriers, want 4 or 5", c, d)
		}
	}
	if !saw5 {
		t.Error("saturated run never took the 5-barrier trigger path; scenario is vacuous")
	}
}

// TestTriggerBarrierWaitTimed pins where the worker pool books the wait at
// the allocation-split barrier of a trigger cycle: in B2's wait histogram,
// like every other barrier wait, not in the shard's busy time. With every
// cycle sampled, each barrier leaves one wait sample per shard but the last
// to arrive, so B2's histogram must hold exactly one B1-sized batch per
// cycle plus one per trigger cycle.
func TestTriggerBarrierWaitTimed(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	cfg := equivalenceConfigs()["saturated-recovery"]
	cfg.Workers = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 1)
	const cycles = 3000
	triggers := 0
	for c := 0; c < cycles; c++ {
		before := e.par.bar.gen.Load()
		e.Step()
		if e.par.bar.gen.Load()-before == 5 {
			triggers++
		}
	}
	if triggers == 0 {
		t.Fatal("saturated run never took the trigger path; scenario is vacuous")
	}
	waiters := float64(len(e.par.shards) - 1)
	if got, want := metricValue(t, reg, "sim_barrier_wait_b1_ns"), waiters*cycles; got != want {
		t.Errorf("B1 holds %v wait samples, want %v", got, want)
	}
	if got, want := metricValue(t, reg, "sim_barrier_wait_b2_ns"), waiters*float64(cycles+triggers); got != want {
		t.Errorf("B2 holds %v wait samples, want %v (%d trigger cycles)", got, want, triggers)
	}
}

// TestBarrierSpinAdaptive checks that the spin budget is chosen from
// GOMAXPROCS at construction, against the named constants and the one
// ordering that matters: a single-P host gets no spin at all (spinning can
// never make another shard arrive there), oversubscribed partitions a short
// one, and a P-per-shard machine the full budget. The four shards come from
// explicit bounds, which New would not build on one P.
func TestBarrierSpinAdaptive(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	if !(0 < spinOversubscribed && spinOversubscribed < spinPerP) {
		t.Fatalf("budgets out of order: want 0 < spinOversubscribed (%d) < spinPerP (%d)",
			spinOversubscribed, spinPerP)
	}
	for _, tc := range []struct {
		procs int
		want  int32
	}{{1, 0}, {2, spinOversubscribed}, {4, spinPerP}} {
		runtime.GOMAXPROCS(tc.procs)
		e, err := New(QuickConfig()) // one shard, no workers to replace
		if err != nil {
			t.Fatal(err)
		}
		e.par = newParRuntime(e, partition(len(e.nodes), 4, alignNodes))
		if got := e.par.bar.spin; got != tc.want {
			t.Errorf("GOMAXPROCS=%d, 4 shards: spin = %d, want %d", tc.procs, got, tc.want)
		}
		e.Close()
	}
}

// TestParallelGoroutinePath forces the worker-pool schedule on hosts where
// New would build one shard: with GOMAXPROCS raised above one before
// construction, real workers spawn, and their preemptive
// interleaving (plus, under -race, the race detector) exercises the
// barrier protocol and the push rings no matter what machine the suite
// runs on. The saturated-recovery scenario keeps the trigger path and its
// serial allocation suffix in play.
func TestParallelGoroutinePath(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	cfg := equivalenceConfigs()["saturated-recovery"]
	probe, err := New(func() Config { c := cfg; c.Workers = 4; return c }())
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.par.workers) != 3 {
		probe.Close()
		t.Fatal("GOMAXPROCS=2 engine did not take the worker-pool path")
	}
	probe.Close()

	baseRes, _, baseEvents, baseCounters := runTraced(t, cfg, 1)
	res, _, events, counters := runTraced(t, cfg, 4)
	if res != baseRes || counters != baseCounters || len(events) != len(baseEvents) {
		t.Fatalf("goroutine path diverged: %+v vs %+v (%d vs %d events)",
			res, baseRes, len(events), len(baseEvents))
	}
	for i := range events {
		if events[i] != baseEvents[i] {
			t.Fatalf("event %d diverged:\n got  %+v\n want %+v", i, events[i], baseEvents[i])
		}
	}
}

// TestDefaultWorkersClamp covers the GOMAXPROCS clamp of DefaultWorkers —
// containers and explicit limits can cap runnable goroutines well below
// NumCPU, and spawning more shards than Ps only adds barrier overhead —
// plus Engine.Close at the clamped counts.
func TestDefaultWorkersClamp(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	for _, tc := range []struct{ procs, want int }{
		{1, 1}, {3, 3}, {8, 8}, {16, 8}, // capped at 8
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got := DefaultWorkers(); got != tc.want {
			t.Errorf("GOMAXPROCS=%d: DefaultWorkers() = %d, want %d", tc.procs, got, tc.want)
		}
	}

	// An engine built at each clamped count must start, step and Close
	// cleanly — including workers=1, where the runtime has one shard and
	// Close is a no-op.
	for _, procs := range []int{1, 3, 16} {
		runtime.GOMAXPROCS(procs)
		cfg := QuickConfig()
		cfg.Rate = 0.5
		cfg.Workers = DefaultWorkers()
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for c := 0; c < 100; c++ {
			e.Step()
		}
		e.Close()
		e.Step() // one-shard continuation after Close
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("procs=%d (workers=%d): %v", procs, cfg.Workers, err)
		}
		e.Close() // double Close is a no-op
	}
}

// TestShardAlignmentPartition checks the cache-line-aligned shard split:
// boundaries are rounded to whole status-word cache lines when the node
// count allows, the partition always covers [0, n) exactly with non-empty
// shards, and — since golden equivalence already proves results are
// partition-independent — a large aligned topology still reproduces the
// plain split's invariants. GOMAXPROCS is raised so that New builds the
// three shards on any host.
func TestShardAlignmentPartition(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	cfg := QuickConfig()
	cfg.K, cfg.N = 8, 2 // 64 nodes, 8 to a 64-byte line of status words
	cfg.Rate = 0.7
	cfg.Workers = 3
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p := e.par
	if len(p.shards) != 3 {
		t.Fatalf("engine built %d shards, want 3", len(p.shards))
	}
	unit := alignNodes
	prev := 0
	for i := range p.shards {
		sh := &p.shards[i]
		if sh.lo != prev {
			t.Fatalf("shard %d starts at %d, previous ended at %d", i, sh.lo, prev)
		}
		if sh.hi <= sh.lo {
			t.Fatalf("shard %d is empty [%d,%d)", i, sh.lo, sh.hi)
		}
		if i > 0 && sh.lo%unit != 0 {
			t.Errorf("shard %d boundary %d not aligned to %d-node cache-line unit", i, sh.lo, unit)
		}
		prev = sh.hi
	}
	if prev != len(e.nodes) {
		t.Fatalf("partition ends at %d, want %d", prev, len(e.nodes))
	}
	for c := 0; c < 300; c++ {
		e.Step()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
