package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// idle returns a zero-rate engine for hand-built scenarios.
func idle(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := QuickConfig()
	cfg.Rate = 0
	cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// reserveIDs makes every node of e draw ids from below on, as a snapshot of
// the engine-wide counter's layout with NextID below loads: for tests that
// build messages by hand with ids of their own.
func reserveIDs(e *Engine, below message.ID) {
	n := int64(len(e.nodes))
	for i := range e.nodes {
		e.nodes[i].seq = max(e.nodes[i].seq, (int64(below)+n-1)/n)
	}
}

func stepN(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.Step()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: invariant violated: %v", e.Now(), err)
		}
	}
}

// A buffer depth or message length the run-length buffer cannot hold is
// refused at New, with the limit in the error, rather than wrapping its
// 16-bit counters mid-run.
func TestConfigRefusesWhatABufferCannotHold(t *testing.T) {
	for _, c := range []struct {
		mutate func(*Config)
		limit  int
	}{
		{func(c *Config) { c.BufDepth = router.MaxDepth + 1 }, router.MaxDepth},
		{func(c *Config) { c.MsgLen = router.MaxMessageLen + 1 }, router.MaxMessageLen},
	} {
		cfg := QuickConfig()
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), strconv.Itoa(c.limit)) {
			t.Errorf("depth %d, length %d: New says %v, want a refusal naming %d", cfg.BufDepth, cfg.MsgLen, err, c.limit)
		}
	}
}

// Set ids are 16 bits (the caches in an input VC's buffer, injection channels
// and queues), so a network whose candidate table could hand out more is
// refused at New. On the 2-ary 9-cube only a fault overlay could — a variant
// of each 18-port set a node — so the same network without faults is built.
func TestNewRefusesMoreSetsThanAnIDNames(t *testing.T) {
	cfg := QuickConfig()
	cfg.K, cfg.N, cfg.VCs = 2, 9, 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("fault-free: %v", err)
	}
	e.Close()
	cfg.Faults = new(fault.Schedule).FailLink(100, 0, 0)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxSetID)) {
		t.Fatalf("with faults: New says %v, want a refusal naming %d", err, maxSetID)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.K = 1 },
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.InjChannels = 0 },
		func(c *Config) { c.EjChannels = 0 },
		func(c *Config) { c.MsgLen = 0 },
		func(c *Config) { c.Rate = -0.1 },
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.RecoveryDelay = -1 },
		func(c *Config) { c.Routing = "magic" },
		func(c *Config) { c.Routing = "dor"; c.VCs = 1 },
		func(c *Config) { c.Pattern = "nope" },
		func(c *Config) { c.K = 5; c.Pattern = "butterfly" }, // non-power-of-2
		func(c *Config) { c.VCs, c.InjChannels = 10, 5 },     // 6*10+5 = 65 crossbar inputs
		func(c *Config) { c.EjChannels = 59 },                // 6+59 = 65 outputs
		func(c *Config) { c.N, c.K, c.VCs = 1, 4, 33 },       // wider than a status word too
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The widest router the allocators' words hold: 6*10+4 = 64 crossbar
	// inputs, the last injection channel on bit 63.
	wide := DefaultConfig()
	wide.K, wide.VCs, wide.Rate = 4, 10, 0.9
	we, err := New(wide)
	if err != nil {
		t.Fatalf("64 crossbar inputs refused: %v", err)
	}
	for i := 0; i < 300; i++ {
		we.Step()
		if i%20 == 0 {
			if err := we.CheckInvariants(); err != nil {
				t.Fatalf("64 crossbar inputs, cycle %d: %v", i, err)
			}
		}
	}
	if we.Delivered() == 0 {
		t.Error("64 crossbar inputs: nothing delivered in 300 cycles")
	}
	// Defaults resolve.
	cfg := DefaultConfig()
	cfg.Routing, cfg.Pattern = "", ""
	cfg.Limiter, cfg.LimiterName = nil, ""
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Routing != "tfar" || e.Config().Pattern != "uniform" || e.Config().LimiterName != "none" {
		t.Errorf("defaults not applied: %+v", e.Config())
	}
	if got := cfg.TotalCycles(); got != cfg.WarmupCycles+cfg.MeasureCycles+cfg.DrainCycles {
		t.Error("TotalCycles")
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	e := idle(t, nil)
	tp := e.Topology()
	src := tp.FromCoords([]int{0, 0})
	dst := tp.FromCoords([]int{2, 1}) // distance 3
	m := e.Inject(src, dst, 16)

	stepN(t, e, 100)
	if m.State != message.StateDelivered {
		t.Fatalf("message not delivered after 100 cycles: %v", m)
	}
	// Expected latency: ~1 cycle queue + 1 routing per hop + 1 cycle/flit
	// pipeline: header needs ~2 cycles/hop, then 15 more flits drain.
	lat := m.Latency()
	minLat := int64(3 + 16 - 1) // absolute lower bound: hops + serialization
	if lat < minLat || lat > 4*minLat {
		t.Errorf("latency %d outside sanity range [%d, %d]", lat, minLat, 4*minLat)
	}
	if m.FlitsSent != 16 || m.FlitsEjected != 16 {
		t.Errorf("flit counts %d/%d", m.FlitsSent, m.FlitsEjected)
	}
	if e.Delivered() != 1 || e.InFlight() != 0 {
		t.Errorf("delivered=%d inflight=%d", e.Delivered(), e.InFlight())
	}
}

func TestNeighborMessageMinimalLatency(t *testing.T) {
	e := idle(t, nil)
	m := e.Inject(0, e.Topology().Neighbor(0, 0), 1)
	stepN(t, e, 20)
	if m.State != message.StateDelivered {
		t.Fatal("not delivered")
	}
	// 1 hop, 1 flit: inject-route(1) + move to neighbor(1) + route to
	// ejector(1) + eject(1) plus one cycle of queue/injection setup.
	if m.Latency() > 8 {
		t.Errorf("single-flit neighbor latency %d too high", m.Latency())
	}
}

func TestInjectValidation(t *testing.T) {
	e := idle(t, nil)
	for _, f := range []func(){
		func() { e.Inject(0, 0, 4) },
		func() { e.Inject(-1, 2, 4) },
		func() { e.Inject(0, 999, 4) },
		func() { e.Inject(0, 2, 0) },
		func() { e.Inject(0, 2, router.MaxMessageLen+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestManyMessagesAllDelivered(t *testing.T) {
	e := idle(t, nil)
	tp := e.Topology()
	var msgs []*message.Message
	// Every node sends to every other node at distance <= 2, staggered.
	for s := 0; s < tp.Nodes(); s++ {
		for d := 0; d < tp.Nodes(); d++ {
			if s == d || tp.Distance(topology.NodeID(s), topology.NodeID(d)) > 2 {
				continue
			}
			msgs = append(msgs, e.Inject(topology.NodeID(s), topology.NodeID(d), 8))
		}
	}
	stepN(t, e, 600)
	for _, m := range msgs {
		if m.State != message.StateDelivered {
			t.Fatalf("undelivered: %v (recoveries=%d)", m, m.Recoveries)
		}
	}
	if e.InFlight() != 0 {
		t.Errorf("inflight=%d", e.InFlight())
	}
}

func TestLowLoadRunDeliversEverything(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 0.1
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2000, 1500
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < cfg.TotalCycles(); i++ {
		e.Step()
		if i%97 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
	r := e.Collector().Result()
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// At 0.1 flits/node/cycle the network is far below saturation:
	// accepted must track offered within statistical noise.
	if math.Abs(r.Accepted-0.1) > 0.015 {
		t.Errorf("accepted %.4f, offered 0.1", r.Accepted)
	}
	// Latency must be close to the no-load bound (a few tens of cycles on a
	// 4-ary 2-cube with 16-flit messages), far from saturation values.
	if r.AvgLatency < 16 || r.AvgLatency > 80 {
		t.Errorf("avg latency %.1f outside low-load range", r.AvgLatency)
	}
	if r.DeadlockPct > 0.5 {
		t.Errorf("deadlock rate %.2f%% at low load", r.DeadlockPct)
	}
	// Virtually everything generated must eventually be delivered.
	if e.InFlight() > int64(e.Topology().Nodes()) {
		t.Errorf("too many in flight after drain: %d", e.InFlight())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Result1 float64, d, g int64) {
		cfg := QuickConfig()
		cfg.Rate = 0.25
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 300
		cfg.Seed = 99
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := e.Run()
		return r.AvgLatency, e.Delivered(), e.Generated()
	}
	l1, d1, g1 := run()
	l2, d2, g2 := run()
	if l1 != l2 || d1 != d2 || g1 != g2 {
		t.Errorf("runs differ: (%v,%d,%d) vs (%v,%d,%d)", l1, d1, g1, l2, d2, g2)
	}
}

func TestSeedsMatter(t *testing.T) {
	run := func(seed uint64) int64 {
		cfg := QuickConfig()
		cfg.Rate = 0.25
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 300
		cfg.Seed = seed
		e, _ := New(cfg)
		e.Run()
		return e.Generated()
	}
	if run(1) == run(2) {
		t.Log("generated counts equal across seeds (possible but unlikely); checking latency")
		// Not a hard failure: counts can coincide. Determinism test above
		// covers the core property.
	}
}

// A ring of long messages each addressed 3 hops Plus with a single virtual
// channel is the classic wormhole deadlock: every header waits for the
// channel held by the next message around the ring. The detector must fire
// and recovery must still deliver every message.
func TestDeadlockDetectionAndRecovery(t *testing.T) {
	e := idle(t, func(c *Config) {
		c.K, c.N = 8, 1
		c.VCs = 1
		c.MsgLen = 64 // long enough to span several routers
		c.DetectionThreshold = 32
		c.RecoveryDelay = 16
		c.WarmupCycles = 0 // deadlocks happen immediately; measure from cycle 0
	})
	var msgs []*message.Message
	for s := 0; s < 8; s++ {
		msgs = append(msgs, e.Inject(topology.NodeID(s), topology.NodeID((s+3)%8), 64))
	}
	stepN(t, e, 4000)
	for _, m := range msgs {
		if m.State != message.StateDelivered {
			t.Fatalf("undelivered after recovery: %v (recoveries=%d, inflight=%d)",
				m, m.Recoveries, e.InFlight())
		}
	}
	if e.Recovered() == 0 {
		t.Error("expected at least one deadlock recovery in the ring scenario")
	}
	if e.Collector().Deadlocks() == 0 {
		t.Error("collector missed the deadlocks")
	}
}

// With 3 virtual channels and TFAR the same ring scenario usually resolves
// without deadlock; whatever happens, everything must be delivered and
// invariants must hold.
func TestRingWithVirtualChannels(t *testing.T) {
	e := idle(t, func(c *Config) {
		c.K, c.N = 8, 1
		c.VCs = 3
		c.RecoveryDelay = 16
	})
	var msgs []*message.Message
	for s := 0; s < 8; s++ {
		msgs = append(msgs, e.Inject(topology.NodeID(s), topology.NodeID((s+3)%8), 32))
	}
	stepN(t, e, 3000)
	for _, m := range msgs {
		if m.State != message.StateDelivered {
			t.Fatalf("undelivered: %v", m)
		}
	}
}

func TestRecoveredMessageKeepsLatencyCharge(t *testing.T) {
	e := idle(t, func(c *Config) {
		c.K, c.N = 8, 1
		c.VCs = 1
		c.DetectionThreshold = 16
		c.RecoveryDelay = 100
	})
	var msgs []*message.Message
	for s := 0; s < 8; s++ {
		msgs = append(msgs, e.Inject(topology.NodeID(s), topology.NodeID((s+3)%8), 64))
	}
	stepN(t, e, 6000)
	recovered := false
	for _, m := range msgs {
		if m.Recoveries > 0 && m.State == message.StateDelivered {
			recovered = true
			if m.Latency() < 100 {
				t.Errorf("recovered message latency %d below the recovery delay", m.Latency())
			}
		}
	}
	if !recovered {
		t.Skip("no message was recovered in this run (timing-dependent)")
	}
}

func TestDORRoutingRuns(t *testing.T) {
	cfg := QuickConfig()
	cfg.Routing = "dor"
	cfg.Rate = 0.15
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1500, 500
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < cfg.TotalCycles(); i++ {
		e.Step()
		if i%101 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
	r := e.Collector().Result()
	if r.Delivered == 0 {
		t.Fatal("DOR delivered nothing")
	}
	// DOR with dateline is deadlock-free: detector should stay quiet.
	if e.Recovered() != 0 {
		t.Errorf("DOR produced %d recoveries; the dateline scheme must be deadlock-free", e.Recovered())
	}
}

func TestALOThrottlesAtInjection(t *testing.T) {
	// Saturate a tiny ring with ALO: the source queue must hold messages
	// back rather than pile them into injection channels.
	cfg := QuickConfig()
	cfg.K, cfg.N = 4, 1
	cfg.VCs = 2
	cfg.Rate = 2.0 // far beyond capacity
	cfg.Limiter, cfg.LimiterName = core.NewALO(), "alo"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 1000, 200
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rALO := e.Run()
	// The paper reports <= 0.6% detected deadlocks with any limiter; allow
	// statistical headroom on this tiny ring.
	if rALO.DeadlockPct > 2.0 {
		t.Errorf("ALO deadlock rate %.2f%% should be negligible", rALO.DeadlockPct)
	}
	if rALO.Delivered == 0 {
		t.Fatal("ALO delivered nothing")
	}
	sq, _ := e.QueueLengths()
	if sq == 0 {
		t.Error("ALO at 2.0 flits/node/cycle should leave messages queued at sources")
	}
}

func TestStatsAccessors(t *testing.T) {
	e := idle(t, nil)
	if e.Now() != 0 || e.Collector() == nil || e.Topology() == nil {
		t.Error("accessors")
	}
	e.Step()
	if e.Now() != 1 {
		t.Error("Now after Step")
	}
	if e.Recovered() != 0 || e.Delivered() != 0 || e.Generated() != 0 {
		t.Error("counters on idle engine")
	}
	s, r := e.QueueLengths()
	if s != 0 || r != 0 {
		t.Error("queues on idle engine")
	}
}

func TestPatternsRunCleanly(t *testing.T) {
	for _, pat := range []string{"uniform", "butterfly", "complement", "bit-reversal", "perfect-shuffle", "transpose", "tornado"} {
		pat := pat
		t.Run(pat, func(t *testing.T) {
			t.Parallel()
			cfg := QuickConfig()
			cfg.Pattern = pat
			cfg.Rate = 0.12
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 400
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < cfg.TotalCycles(); i++ {
				e.Step()
				if i%211 == 0 {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", i, err)
					}
				}
			}
			if e.Delivered() == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

func TestWithHelpers(t *testing.T) {
	cfg := DefaultConfig()
	c2 := cfg.WithRate(0.55)
	if c2.Rate != 0.55 || cfg.Rate == 0.55 {
		t.Error("WithRate must copy")
	}
	c3 := cfg.WithLimiter("dril", baseline.NewDRIL())
	if c3.LimiterName != "dril" || cfg.LimiterName != "alo" {
		t.Error("WithLimiter must copy")
	}
}

// TestNewRefusesABadLimiterFactory checks that New refuses a limiter factory
// that leaves a node without a limiter, by building too few or a nil one.
func TestNewRefusesABadLimiterFactory(t *testing.T) {
	for name, f := range map[string]core.Factory{
		"short": func(tp *topology.Torus, _ int) []core.Limiter { return make([]core.Limiter, tp.Nodes()-1) },
		"nil":   func(tp *topology.Torus, _ int) []core.Limiter { return make([]core.Limiter, tp.Nodes()) },
	} {
		if _, err := New(QuickConfig().WithLimiter(name, f)); err == nil || !strings.Contains(err.Error(), "limiter factory") {
			t.Errorf("%s factory: New returned %v, want a limiter-factory error", name, err)
		}
	}
}
