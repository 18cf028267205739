package sim

import (
	"testing"

	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// faulty returns a zero-rate engine with the given fault schedule, for
// hand-built scenarios, checking the candidate table at every epoch flip.
func faulty(t *testing.T, s *fault.Schedule, mutate func(*Config)) *Engine {
	t.Helper()
	e := idle(t, func(c *Config) {
		c.Faults = s
		if mutate != nil {
			mutate(c)
		}
	})
	checkFlips(t, e)
	return e
}

// checkFlips runs CheckReconfiguration at every epoch flip of e.
func checkFlips(t *testing.T, e *Engine) {
	e.SetReconfigHook(func(epoch uint64) {
		if err := e.CheckReconfiguration(); err != nil {
			t.Errorf("epoch %d: %v", epoch, err)
		}
	})
}

// TestFaultTransientLinkRetryDelivers severs a streaming wormhole on a ring,
// watches the kill/retry machinery fight the outage, and checks the message
// finally gets through once the link heals.
func TestFaultTransientLinkRetryDelivers(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	sched := (&fault.Schedule{}).FailLink(6, 1, up).RestoreLink(300, 1, up)
	e := faulty(t, sched, func(c *Config) {
		c.K, c.N = 8, 1
	})
	rec := trace.NewRecorder(256)
	e.SetListener(rec)

	// 0 -> 3 is minimal only in the Plus direction: the wormhole must cross
	// (1, Plus), which dies at cycle 6 with the 64-flit message mid-stream.
	m := e.Inject(0, 3, 64)
	stepN(t, e, 1000)

	if m.State != message.StateDelivered {
		t.Fatalf("message not delivered after the link healed: %v", m)
	}
	if m.Retries == 0 || e.Aborted() == 0 || e.Retried() == 0 {
		t.Fatalf("no retry happened: retries=%d aborted=%d retried=%d",
			m.Retries, e.Aborted(), e.Retried())
	}
	if e.Dropped() != 0 {
		t.Fatalf("%d messages dropped; the outage was transient", e.Dropped())
	}
	if rec.Count(trace.KindFault) == 0 || rec.Count(trace.KindRepair) == 0 {
		t.Error("fault/repair events not emitted")
	}
	// Every abort was answered the same cycle: a retry or a drop.
	checkAbortOutcomes(t, rec, int64(m.ID))
}

// TestFaultPermanentLinkExhaustsRetries checks the retry limit: a message
// whose only minimal path is permanently dead is retried MaxRetries times
// and then dropped with the retries-exhausted reason.
func TestFaultPermanentLinkExhaustsRetries(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	sched := (&fault.Schedule{}).FailLink(0, 1, up)
	e := faulty(t, sched, func(c *Config) {
		c.K, c.N = 8, 1
		c.Retry = fault.RetryPolicy{MaxRetries: 3, BackoffBase: 4, BackoffCap: 16}
	})
	rec := trace.NewRecorder(256)
	e.SetListener(rec)

	m := e.Inject(0, 3, 8)
	stepN(t, e, 500)

	if m.State != message.StateDropped {
		t.Fatalf("message not dropped: %v (retries=%d)", m, m.Retries)
	}
	if m.DropReason != message.DropRetriesExhausted {
		t.Fatalf("drop reason %q want %q", m.DropReason, message.DropRetriesExhausted)
	}
	if m.Retries != 3 {
		t.Errorf("retried %d times want 3", m.Retries)
	}
	if e.Dropped() != 1 {
		t.Errorf("dropped counter %d want 1", e.Dropped())
	}
	checkAbortOutcomes(t, rec, int64(m.ID))
}

// TestFaultDeadDestinationUnreachable checks that traffic addressed to a
// dead router is dropped as unreachable instead of wandering forever.
func TestFaultDeadDestinationUnreachable(t *testing.T) {
	sched := (&fault.Schedule{}).FailRouter(0, 9)
	e := faulty(t, sched, nil)
	m := e.Inject(0, 9, 8)
	stepN(t, e, 50)
	if m.State != message.StateDropped || m.DropReason != message.DropUnreachable {
		t.Fatalf("message to dead router: state=%v reason=%q", m.State, m.DropReason)
	}
}

// TestFaultRouterDownKillsResidentTraffic fails a router mid-simulation and
// checks that everything it held — its source backlog and the wormholes
// crossing it — is killed, then that invariants hold on the wreckage.
func TestFaultRouterDownKillsResidentTraffic(t *testing.T) {
	// Node 2 on the 0->4 path dies at cycle 8.
	sched := (&fault.Schedule{}).FailRouter(8, 2)
	e := faulty(t, sched, func(c *Config) {
		c.K, c.N = 8, 1
	})
	through := e.Inject(0, 4, 64) // streams across node 2 when it dies
	queued := e.Inject(2, 5, 8)   // in node 2's injection path when it dies
	// The default policy's eight capped-exponential backoffs sum to ~3000
	// cycles; run past them so the through-message burns out.
	stepN(t, e, 3500)

	if e.Aborted() == 0 {
		t.Fatal("router failure aborted nothing")
	}
	if queued.State != message.StateDropped || queued.DropReason != message.DropSourceFailed {
		t.Errorf("backlog of dead source: state=%v reason=%q", queued.State, queued.DropReason)
	}
	// The through-message's source and destination are alive but its only
	// minimal path crosses the dead router: retries burn out, then drop.
	if through.State != message.StateDropped || through.DropReason != message.DropRetriesExhausted {
		t.Errorf("through-message: state=%v reason=%q retries=%d",
			through.State, through.DropReason, through.Retries)
	}
}

// checkAbortOutcomes asserts that every abort event of the message was
// resolved in the same cycle by a retry or a drop — no kill may leave a
// message in limbo.
func checkAbortOutcomes(t *testing.T, rec *trace.Recorder, msgID int64) {
	t.Helper()
	hist := rec.MessageHistory(msgID)
	for i, ev := range hist {
		if ev.Kind != trace.KindAborted {
			continue
		}
		resolved := false
		for _, nxt := range hist[i+1:] {
			if nxt.Cycle != ev.Cycle {
				break
			}
			if nxt.Kind == trace.KindRetried || nxt.Kind == trace.KindDropped {
				resolved = true
				break
			}
		}
		if !resolved {
			t.Fatalf("abort at cycle %d not resolved by retry/drop: %v", ev.Cycle, hist)
		}
	}
	last := hist[len(hist)-1].Kind
	if last != trace.KindDelivered && last != trace.KindDropped && last != trace.KindRetried {
		t.Fatalf("terminal event %v; want delivered or dropped (or retried, still pending)", last)
	}
}

// TestFaultInvariantsUnderLoad runs a loaded network through a barrage of
// link and router failures (some transient) with invariant checks every
// cycle — the strongest exercise of the teardown machinery.
func TestFaultInvariantsUnderLoad(t *testing.T) {
	tp := topology.New(4, 2)
	sched, err := fault.Plan(tp, fault.Profile{
		LinkFraction:      0.10,
		RouterFraction:    0.10,
		At:                100,
		Stagger:           400,
		TransientFraction: 0.5,
		RepairAfter:       150,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := faulty(t, sched, func(c *Config) {
		c.Rate = 0.8
		c.WarmupCycles, c.MeasureCycles, c.DrainCycles = 0, 1200, 0
	})
	stepN(t, e, 1200)
	if e.Aborted() == 0 {
		t.Error("barrage aborted nothing; faults not biting")
	}
	// Conservation: everything generated is delivered, dropped, or still
	// accounted in flight (queued, retrying, recovering, or in the network).
	if e.InFlight() < 0 {
		t.Errorf("negative in-flight count %d", e.InFlight())
	}
}

// TestFaultDeterminism is the determinism guard: the same configuration and
// seed must yield bit-identical results, with faults off and on, and an
// empty schedule must be indistinguishable from no schedule (the
// zero-overhead off path).
func TestFaultDeterminism(t *testing.T) {
	base := QuickConfig()
	base.Rate = 0.8
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 200, 1000, 200

	run := func(c Config) stats.Result {
		e, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}

	// Faults off: two runs agree.
	if a, b := run(base), run(base); a != b {
		t.Errorf("fault-free runs diverge:\n%+v\n%+v", a, b)
	}

	// Empty schedule == nil schedule, field for field.
	empty := base
	empty.Faults = &fault.Schedule{}
	if a, b := run(base), run(empty); a != b {
		t.Errorf("empty fault schedule changed the run:\n%+v\n%+v", a, b)
	}

	// Faults on: two runs agree.
	sched, err := fault.Plan(topology.New(base.K, base.N), fault.Profile{
		LinkFraction: 0.08, RouterFraction: 0.05, At: 300,
		TransientFraction: 0.5, RepairAfter: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	withFaults := base.WithFaults(sched)
	if a, b := run(withFaults), run(withFaults); a != b {
		t.Errorf("faulty runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestFaultRequiresFaultAwareRouting is a config guard: every bundled
// routing engine is fault-aware, so New accepts faults with each of them.
func TestFaultRequiresFaultAwareRouting(t *testing.T) {
	for _, alg := range []string{"tfar", "dor", "duato"} {
		cfg := QuickConfig()
		cfg.Routing = alg
		cfg.Faults = (&fault.Schedule{}).FailLink(10, 0, 0)
		if _, err := New(cfg); err != nil {
			t.Errorf("routing %q rejected faults: %v", alg, err)
		}
	}
}

// TestFaultScheduleValidation checks that bad schedules are rejected at
// config time, not at apply time.
func TestFaultScheduleValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Faults = (&fault.Schedule{}).FailRouter(0, 9999)
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range fault event accepted")
	}
	cfg = QuickConfig()
	cfg.Faults = (&fault.Schedule{}).FailLink(10, 0, 0)
	cfg.Retry = fault.RetryPolicy{MaxRetries: 1, BackoffBase: 8, BackoffCap: 4}
	if _, err := New(cfg); err == nil {
		t.Error("invalid retry policy accepted")
	}
}

// TestLivenessFollowsSchedule: an engine without faults has no mask; one with
// a schedule exposes the mask the schedule drives, link down and back up.
func TestLivenessFollowsSchedule(t *testing.T) {
	if e := idle(t, nil); e.Liveness() != nil {
		t.Error("fault-free engine exposes a liveness mask")
	}
	up := topology.PortFor(0, topology.Plus)
	e := faulty(t, (&fault.Schedule{}).FailLink(5, 2, up).RestoreLink(10, 2, up), nil)
	live := e.Liveness()
	if live == nil || !live.AllAlive() {
		t.Fatalf("fresh fault-capable engine: mask %v, want all alive", live)
	}
	stepN(t, e, 6)
	if live.LinkAlive(2, up) || live.DownLinks() != 1 {
		t.Errorf("cycle %d: link (2, %d) alive=%v, %d links down; want it down alone",
			e.Now(), up, live.LinkAlive(2, up), live.DownLinks())
	}
	stepN(t, e, 5)
	if !live.AllAlive() {
		t.Errorf("cycle %d: %d links down after the repair", e.Now(), live.DownLinks())
	}
}
