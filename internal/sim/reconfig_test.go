package sim

import (
	"testing"

	"wormnet/internal/fault"
	"wormnet/internal/topology"
)

// TestEpochAdvancesPerEvent pins the epoch bookkeeping: every
// state-changing fault or repair event advances the routing epoch by
// exactly one, and redundant events (failing a dead component, repairing a
// healthy one) advance nothing.
func TestEpochAdvancesPerEvent(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	cfg := QuickConfig()
	cfg.Rate = 0.3
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 400, 100
	cfg.Faults = (&fault.Schedule{}).
		FailLink(50, 1, up).
		FailLink(60, 1, up). // redundant: already down
		RestoreLink(80, 1, up).
		RestoreLink(90, 1, up). // redundant: already up
		FailRouter(120, 5).
		RestoreRouter(150, 5).
		RestoreRouter(160, 6) // redundant: router 6 never failed
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	checkFlips(t, e)
	if e.Epoch() != 0 {
		t.Fatalf("fresh engine at epoch %d", e.Epoch())
	}
	want := map[int64]uint64{49: 0, 55: 1, 75: 1, 85: 2, 115: 2, 130: 3, 200: 4}
	for c := int64(0); c < 200; c++ {
		e.Step()
		if w, ok := want[e.Now()]; ok && e.Epoch() != w {
			t.Errorf("cycle %d: epoch %d, want %d", e.Now(), e.Epoch(), w)
		}
	}
	if e.Epoch() != 4 {
		t.Errorf("final epoch %d, want 4 (redundant events must not count)", e.Epoch())
	}
}

// TestReconfigurationInvariants is the transition-safety battery: under a
// planner-generated link/router flap storm, every epoch flip must leave the
// engine with a fresh candidate table, epoch-consistent routes, and no
// unrecoverable wait cycle — checked *at the flip itself* via the reconfig
// hook, at worker counts 1, 2 and 4.
func TestReconfigurationInvariants(t *testing.T) {
	sched, err := fault.Plan(topology.New(4, 2), fault.Profile{
		LinkFraction:      0.08,
		RouterFraction:    0.05,
		At:                400,
		Stagger:           300,
		TransientFraction: 1.0,
		RepairAfter:       250,
		FlapCount:         2,
		FlapPeriod:        700,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := QuickConfig()
		cfg.Rate = 0.8
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2500, 500
		cfg.Faults = sched
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var flips []uint64
		e.SetReconfigHook(func(epoch uint64) {
			flips = append(flips, epoch)
			if err := e.CheckReconfiguration(); err != nil {
				t.Errorf("workers=%d: epoch %d: %v", workers, epoch, err)
			}
		})
		e.Run()
		e.Close()
		if len(flips) == 0 {
			t.Fatalf("workers=%d: no reconfigurations fired; scenario is vacuous", workers)
		}
		// Epochs must be observed strictly ascending, ending at the final one.
		for i := 1; i < len(flips); i++ {
			if flips[i] <= flips[i-1] {
				t.Fatalf("workers=%d: non-monotonic epochs %v", workers, flips)
			}
		}
		if flips[len(flips)-1] != e.Epoch() {
			t.Errorf("workers=%d: last hook epoch %d, engine at %d",
				workers, flips[len(flips)-1], e.Epoch())
		}
	}
}

// TestHealedLinkReadmission pins the online repair semantics: a failed
// channel leaves every candidate set the cycle its failure applies, and
// re-enters them the cycle its repair applies — without constructing a new
// engine. The table is the shape's shared one exactly while nothing is down —
// a healed network takes it back instead of rebuilding an equal one — and
// that holds for a mask a snapshot brings as for one a repair does, with
// CheckReconfiguration's pair-by-pair diff run on the shared table each time.
func TestHealedLinkReadmission(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	cfg := QuickConfig()
	cfg.Rate = 0 // no traffic: this test watches the table alone
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 50, 200, 0
	cfg.Faults = (&fault.Schedule{}).
		FailLink(20, 0, up).
		RestoreLink(120, 0, up)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// dst is node 0's +dim0 neighbour: the direct route uses the failed port.
	dst := e.topo.Neighbor(0, up)
	uses := func() bool {
		for _, pc := range e.cand.get(0, dst) {
			if pc.port == up {
				return true
			}
		}
		return false
	}
	if !uses() {
		t.Fatal("healthy table lacks the direct port; test premise broken")
	}
	if e.cand != e.shape.cand {
		t.Error("epoch 0: engine does not read the shape's table")
	}
	for e.Now() <= 20 {
		e.Step()
	}
	if uses() {
		t.Errorf("cycle %d (epoch %d): dead channel still in candidate table", e.Now(), e.Epoch())
	}
	if e.Epoch() != 1 {
		t.Errorf("epoch %d after failure, want 1", e.Epoch())
	}
	if e.cand == e.shape.cand {
		t.Error("a link is down and the engine still reads the shared table")
	}
	faulted, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() <= 120 {
		e.Step()
	}
	healed := func(when string) {
		t.Helper()
		if !uses() {
			t.Errorf("%s, cycle %d (epoch %d): healed channel not re-admitted", when, e.Now(), e.Epoch())
		}
		if e.Epoch() != 2 {
			t.Errorf("%s: epoch %d, want 2", when, e.Epoch())
		}
		if e.cand != e.shape.cand {
			t.Errorf("%s: nothing is down and the engine reads a table of its own", when)
		}
		if err := e.CheckReconfiguration(); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	healed("after the repair")
	whole, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(faulted); err != nil {
		t.Fatal(err)
	}
	if uses() || e.cand == e.shape.cand {
		t.Error("restored under a mask with a link down: table does not follow it")
	}
	if err := e.Restore(whole); err != nil {
		t.Fatal(err)
	}
	healed("restored to the healed snapshot")
}

// TestReconfigRecovery is the end-to-end recovery contract: after the final
// repair of a flapping schedule, the network must return to useful service —
// traffic keeps flowing, and stopping the sources drains every in-flight
// message with the full invariant battery clean.
func TestReconfigRecovery(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	down := topology.PortFor(1, topology.Minus)
	cfg := QuickConfig()
	cfg.Rate = 0.6
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 4000, 0
	sched := &fault.Schedule{}
	for i := 0; i < 3; i++ {
		at := int64(800 + 600*i)
		sched.FailLink(at, 2, up).RestoreLink(at+300, 2, up)
		sched.FailLink(at+150, 7, down).RestoreLink(at+450, 7, down)
	}
	sched.FailRouter(1400, 11).RestoreRouter(2000, 11).
		FailRouter(2600, 11).RestoreRouter(3200, 11)
	cfg.Faults = sched
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const finalRepair = int64(3200)
	for e.Now() < finalRepair+1 {
		e.Step()
	}
	deliveredAtRepair := e.Delivered()
	for e.Now() < finalRepair+1000 {
		e.Step()
	}
	if e.Delivered() <= deliveredAtRepair {
		t.Errorf("no deliveries in the 1000 cycles after the final repair (stuck at %d)", deliveredAtRepair)
	}
	if err := e.CheckReconfiguration(); err != nil {
		t.Errorf("post-repair reconfiguration state: %v", err)
	}
	e.StopSources()
	for c := 0; c < 20000 && e.InFlight() > 0; c++ {
		e.Step()
	}
	if fl := e.InFlight(); fl != 0 {
		t.Fatalf("%d messages stuck after post-repair drain", fl)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery drain: %v", err)
	}
}
