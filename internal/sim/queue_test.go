package sim

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// The source queue holds records and the object of a message is built when an
// injection channel admits it (fifo.go, Engine.materialise). These tests cover
// the places where that is visible: the paths that take a record off a queue
// other than by admission, the objects that exist before admission, the
// snapshot, and what the backlog costs.

// denyAll is the limiter of a network that admits nothing: whatever the
// sources generate stays in their queues, as records.
type denyAll struct{}

func (denyAll) Allow(core.ChannelView, topology.NodeID) bool { return false }
func (denyAll) Name() string                                 { return "deny-all" }

// gated admits everything while *open and nothing otherwise.
type gated struct{ open *bool }

func (g gated) Allow(core.ChannelView, topology.NodeID) bool { return *g.open }
func (gated) Name() string                                   { return "gated" }

// scripted returns a 4-ary 2-cube whose nodes generate exactly script[node].
func scripted(t *testing.T, script map[topology.NodeID][]traffic.Event, mutate func(*Config)) *Engine {
	t.Helper()
	return idle(t, func(c *Config) {
		c.SourceName = "test-script"
		c.Sources = func(node topology.NodeID) traffic.Generator {
			s, err := traffic.NewScriptSource(node, script[node])
			if err != nil {
				t.Fatalf("script for node %d: %v", node, err)
			}
			return s
		}
		if mutate != nil {
			mutate(c)
		}
	})
}

// bareRecords counts the waiting messages that are records only.
func (e *Engine) bareRecords() (n int) {
	for i := range e.nodes {
		e.eachWaiting(&e.nodes[i], func(r *queued) {
			if e.object(r.id) == nil {
				n++
			}
		})
	}
	return n
}

// eventsOf returns the recorded events of one kind.
func eventsOf(tap *eventTap, kind trace.Kind) (out []trace.Event) {
	for _, ev := range tap.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestRouterFailureDropsItsBacklog: a router that dies takes its source queue
// with it. Every waiting message — the records the source generated and the
// object Inject built — is dropped as source-failed, with the fields it was
// generated with, and leaves nothing behind in the arena.
func TestRouterFailureDropsItsBacklog(t *testing.T) {
	script := map[topology.NodeID][]traffic.Event{
		5: {{Cycle: 2, Dst: 9, Length: 16}, {Cycle: 2, Dst: 0, Length: 7}, {Cycle: 4, Dst: 14, Length: 3}},
		6: {{Cycle: 3, Dst: 1, Length: 16}},
	}
	for _, workers := range []int{1, 2} {
		e := scripted(t, script, func(c *Config) {
			c.Limiter, c.LimiterName = core.Shared(denyAll{}), "deny-all"
			c.Faults = (&fault.Schedule{}).FailRouter(10, 5)
			c.Workers = workers
		})
		tap := &eventTap{}
		e.SetListener(tap)
		stepN(t, e, 6)
		injected := e.Inject(5, 2, 11)
		stepN(t, e, 3)
		if q := &e.nodes[5].queue; q.Len() != 4 || e.bareRecords() != 4 || len(e.built) != 1 {
			t.Fatalf("workers=%d: before the failure node 5 queues %d, %d bare records, %d built", workers, q.Len(), e.bareRecords(), len(e.built))
		}
		stepN(t, e, 2) // cycle 10 applies the failure
		drops := eventsOf(tap, trace.KindDropped)
		want := []trace.Event{
			{Cycle: 10, Kind: trace.KindDropped, Msg: 0, Src: 5, Dst: 9, Node: 5, Len: 16},
			{Cycle: 10, Kind: trace.KindDropped, Msg: 1, Src: 5, Dst: 0, Node: 5, Len: 7},
			{Cycle: 10, Kind: trace.KindDropped, Msg: 3, Src: 5, Dst: 14, Node: 5, Len: 3},
			{Cycle: 10, Kind: trace.KindDropped, Msg: int64(injected.ID), Src: 5, Dst: 2, Node: 5, Len: 11},
		}
		if !slices.Equal(drops, want) {
			t.Errorf("workers=%d: drops\n got  %+v\n want %+v", workers, drops, want)
		}
		if injected.State != message.StateDropped || injected.DropReason != message.DropSourceFailed {
			t.Errorf("workers=%d: the injected object reads %v / %q", workers, injected, injected.DropReason)
		}
		// Node 6's record is all that still waits; the three slots of node 5's
		// records and the injected one's are free, the built table empty.
		if e.Dropped() != 4 || e.InFlight() != 1 || e.bareRecords() != 1 || len(e.built) != 0 ||
			e.waiting.freeSlots() != len(e.waiting.recs)-1 {
			t.Errorf("workers=%d: dropped %d, in flight %d, bare %d, built %d, %d of %d slots free",
				workers, e.Dropped(), e.InFlight(), e.bareRecords(), len(e.built), e.waiting.freeSlots(), len(e.waiting.recs))
		}
		e.Close()
	}
}

// TestDeadDestinationHeadDrops: a queue head addressed to a dead router is
// shed before the gate sees it. The shard section takes the record off the
// queue and its commit builds the object it drops.
func TestDeadDestinationHeadDrops(t *testing.T) {
	script := map[topology.NodeID][]traffic.Event{
		0:  {{Cycle: 10, Dst: 9, Length: 16}, {Cycle: 10, Dst: 9, Length: 5}, {Cycle: 10, Dst: 3, Length: 4}},
		12: {{Cycle: 10, Dst: 9, Length: 2}},
	}
	for _, workers := range []int{1, 2} {
		e := scripted(t, script, func(c *Config) {
			c.Faults = (&fault.Schedule{}).FailRouter(5, 9)
			c.Workers = workers
		})
		tap := &eventTap{}
		e.SetListener(tap)
		stepN(t, e, 11)
		want := []trace.Event{
			{Cycle: 10, Kind: trace.KindDropped, Msg: 0, Src: 0, Dst: 9, Node: 0, Len: 16},
			{Cycle: 10, Kind: trace.KindDropped, Msg: 1, Src: 0, Dst: 9, Node: 0, Len: 5},
			{Cycle: 10, Kind: trace.KindDropped, Msg: 3, Src: 12, Dst: 9, Node: 12, Len: 2},
		}
		if drops := eventsOf(tap, trace.KindDropped); !slices.Equal(drops, want) {
			t.Errorf("workers=%d: drops\n got  %+v\n want %+v", workers, drops, want)
		}
		if m := e.injOf(0)[0].msg; m == nil || m.ID != 2 || m.Dst != 3 || m.GenTime != 10 || m.State != message.StateInjecting {
			t.Errorf("workers=%d: the message behind the dropped heads was not admitted: %v", workers, m)
		}
		stepN(t, e, 40)
		if e.Delivered() != 1 || e.Dropped() != 3 || e.InFlight() != 0 || len(e.waiting.recs) != e.waiting.freeSlots() {
			t.Errorf("workers=%d: delivered %d, dropped %d, in flight %d", workers, e.Delivered(), e.Dropped(), e.InFlight())
		}
		e.Close()
	}
}

// TestInjectedObjectIsTheOneDelivered: Inject takes its message from the pool
// at once and hands the pointer out; the queue holds a record for it, admission
// must pick that very object up, not build a second one, and delivery gives it
// back to the pool.
func TestInjectedObjectIsTheOneDelivered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := idle(t, func(c *Config) { c.Workers = workers })
		m := e.Inject(3, 12, 6)
		if e.built[m.ID] != m || e.bareRecords() != 0 || e.nodes[3].queue.Len() != 1 {
			t.Fatalf("workers=%d: Inject did not file its object with the queue record", workers)
		}
		if err := e.VerifyInjectionProperty(); err != nil {
			t.Fatal(err)
		}
		if w := e.nodes[3].view.HeadWait(); w != 0 {
			t.Fatalf("head wait %d at the cycle of injection", w)
		}
		stepN(t, e, 1)
		if e.injOf(3)[0].msg != m || len(e.built) != 0 || m.State != message.StateInjecting {
			t.Fatalf("workers=%d: the claimed channel holds %v, want the injected object %v", workers, e.injOf(3)[0].msg, m)
		}
		stepN(t, e, 40)
		if m.State != message.StateDelivered || m.DeliverTime < 0 || e.Delivered() != 1 || !m.Pooled {
			t.Errorf("workers=%d: the injected object reads %v after the run", workers, m)
		}
		if !slices.Contains(e.pool, m) {
			t.Errorf("workers=%d: the delivered injected object is not back in the pool", workers)
		}
		e.Close()
	}
}

// TestRetryKeepsItsHistoryThroughTheQueue: a fault-killed message goes back
// through its source queue as a record standing for the same object, so what
// the object has been through — retries, recoveries, the cycle its head first
// entered the network — is still there when it is finally delivered.
func TestRetryKeepsItsHistoryThroughTheQueue(t *testing.T) {
	up := topology.PortFor(0, topology.Plus)
	open := true // the gate: closed, the promoted retry has to wait where it can be seen
	e := faulty(t, (&fault.Schedule{}).FailLink(6, 1, up).RestoreLink(300, 1, up), func(c *Config) {
		c.K, c.N = 8, 1
		c.Limiter, c.LimiterName = core.Shared(gated{&open}), "gated"
	})
	m := e.Inject(0, 3, 64)
	m.Recoveries = 2 // a mark no rebuilt object would carry
	stepN(t, e, 6)
	firstInject := m.InjectTime
	if firstInject < 0 {
		t.Fatal("the head never entered the network before the link died")
	}
	open = false
	for q := &e.nodes[0].queue; q.Empty(); {
		if e.Now() > 200 {
			t.Fatal("the retry never came back to the source queue")
		}
		stepN(t, e, 1)
	}
	stepN(t, e, 5)
	r := e.front(&e.nodes[0])
	if e.object(r.id) != m || r.id != m.ID || r.gen != m.GenTime || e.bareRecords() != 0 {
		t.Fatalf("the retry waits as %+v, want a record of %v", *r, m)
	}
	if w := e.nodes[0].view.HeadWait(); w != e.Now()-m.GenTime {
		t.Errorf("head wait %d at cycle %d, generated at %d", w, e.Now(), m.GenTime)
	}
	if err := e.VerifyInjectionProperty(); err != nil {
		t.Error(err)
	}
	open = true
	stepN(t, e, 1000)
	if m.State != message.StateDelivered || m.Retries == 0 || m.Recoveries != 2 || m.InjectTime != firstInject {
		t.Errorf("delivered %v with retries=%d recoveries=%d inject=%d (first inject %d)",
			m, m.Retries, m.Recoveries, m.InjectTime, firstInject)
	}
}

// TestDeadEndSeesChannelClaimedThisCycle: the fault pre-scan runs inside the
// injection section, where a channel claimed this cycle is busy by its cached
// length but has no message yet. A header with no live way out of its source
// must still be found there, so that the kill fires at the allocation suffix's
// commit point and not inside a section shards share. The pre-scan runs on
// two shards only, so GOMAXPROCS is raised for New to build them on any host.
func TestDeadEndSeesChannelClaimedThisCycle(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	up := topology.PortFor(0, topology.Plus)
	// 1 -> 2 is one hop in the Plus direction of dimension 0 and nothing else.
	e := scripted(t, map[topology.NodeID][]traffic.Event{1: {{Cycle: 10, Dst: 2, Length: 8}}}, func(c *Config) {
		c.Faults = (&fault.Schedule{}).FailLink(5, 1, up)
		c.Workers = 2
	})
	defer e.Close()
	if len(e.par.shards) != 2 {
		t.Fatalf("engine built %d shards, want 2", len(e.par.shards))
	}
	stepN(t, e, 10)
	if cut := int(e.par.allocCut); cut != len(e.nodes) {
		t.Fatalf("allocation cut at %d with nothing in flight", cut)
	}
	stepN(t, e, 1)
	if cut := e.par.allocCut; cut != 1 {
		t.Errorf("the pre-scan put the allocation cut at %d, want node 1", cut)
	}
	if e.Aborted() != 1 || e.Retried() != 1 {
		t.Errorf("aborted %d, retried %d in the cycle of the claim", e.Aborted(), e.Retried())
	}
}

// TestChannelViewMatchesRouterState: the limiters' view answers from the
// status register and the candidate table's port lists. On saturated states,
// and after a fault flip and a heal, that must be what the router's own
// structures say.
func TestChannelViewMatchesRouterState(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 2.0
	cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	up := topology.PortFor(0, topology.Plus)
	cfg.Faults = (&fault.Schedule{}).
		FailLink(600, 1, up).FailRouter(600, 10).
		RestoreLink(900, 1, up).RestoreRouter(900, 10)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	check := func() {
		t.Helper()
		for i := range e.nodes {
			nd := &e.nodes[i]
			for p := 0; p < e.numPhys; p++ {
				if got, want := nd.view.FreeVCs(topology.Port(p)), freeOutVCs(e, nd, p); got != want {
					t.Fatalf("cycle %d node %d port %d: view says %d free VCs, the output port %d", e.Now(), i, p, got, want)
				} else if want < e.cfg.VCs {
					busy++
				}
			}
			for d := range e.nodes {
				var want []topology.Port
				for _, pc := range e.cand.get(nd.id, topology.NodeID(d)) {
					want = append(want, pc.port)
				}
				if got := nd.view.UsefulPorts(topology.NodeID(d)); !slices.Equal(got, want) {
					t.Fatalf("cycle %d node %d -> %d: view says ports %v, the candidates %v", e.Now(), i, d, got, want)
				}
			}
		}
	}
	for _, at := range []int64{0, 300, 599, 601, 750, 901, 1200} {
		for e.Now() < at {
			e.Step()
		}
		check()
	}
	if e.Epoch() != 4 || busy == 0 {
		t.Errorf("epoch %d (want 4: flip and heal both seen), %d busy ports seen", e.Epoch(), busy)
	}
}

// TestSaturatedSteadyStateAllocs: beyond saturation the backlog grows without
// bound, but a waiting message is a record in an arena that grows by
// doubling, and the objects are as many as the network holds — so once the
// pool has filled, the paper's regime allocates (next to) nothing per cycle.
// With an object per generated message it was about 37 per cycle.
func TestSaturatedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000 cycles of the 8-ary 3-cube")
	}
	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Rate = 0.9
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 1000, 0
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e.Now() < 2000 {
			e.Step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for e.Now() < 3000 {
			e.Step()
		}
		runtime.ReadMemStats(&after)
		queued, _ := e.QueueLengths()
		if perCycle := float64(after.Mallocs-before.Mallocs) / 1000; perCycle >= 1 {
			t.Errorf("workers=%d: %.2f allocations per cycle in the saturated steady state, want < 1", workers, perCycle)
		}
		if queued < 10000 || e.bareRecords() != queued {
			t.Errorf("workers=%d: %d messages wait, %d of them as records; the run is not the paper's regime", workers, queued, e.bareRecords())
		}
		e.Close()
	}
}

// saturatedQueuesConfig is a 4-ary 2-cube far beyond saturation under ALO,
// with three links failing and healing mid-run so that fault retries come back
// through the source queues.
func saturatedQueuesConfig() Config {
	cfg := QuickConfig()
	cfg.Rate = 2.0
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2000, 500
	up := topology.PortFor(0, topology.Plus)
	down := topology.PortFor(1, topology.Minus)
	cfg.Faults = (&fault.Schedule{}).
		FailLink(900, 1, up).RestoreLink(1500, 1, up).
		FailLink(1000, 6, down).RestoreLink(1700, 6, down).
		FailLink(1100, 11, up).RestoreLink(1800, 11, up)
	return cfg
}

// saturatedQueuesRun drives saturatedQueuesConfig to cycle 1413, injecting
// three messages by hand on the way. At that cycle the source queues hold all
// three kinds of entry: 1 072 generated messages, the 3 injected ones and 2
// fault retries.
func saturatedQueuesRun(t *testing.T, workers int) *Engine {
	t.Helper()
	cfg := saturatedQueuesConfig()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < 1413 {
		switch e.Now() {
		case 1405:
			e.Inject(2, 9, 16)
		case 1410:
			e.Inject(7, 12, 8)
			e.Inject(2, 5, 16)
		}
		e.Step()
	}
	return e
}

// TestRestoreQueuesWrittenByParent reads a snapshot written by the last commit
// whose source queues held message objects (PR 14: saturatedQueuesRun at cycle
// 1413, gob-encoded in the first layout, which DecodeV1Snapshot converts). A
// record is written as the message it will become, so today's engine must
// encode the same run to the bytes of the conversion; it must finish
// the run from the file as if it had never stopped, at any worker count; and
// after the restore the generated messages wait as records again — only the
// injected and retried ones, which are more than a record says, are objects.
func TestRestoreQueuesWrittenByParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/queues_written_by_pr14.gob")
	if err != nil {
		t.Fatal(err)
	}
	golden := saturatedQueuesRun(t, 1)
	defer golden.Close()
	if golden.bareRecords() != 1072 || len(golden.built) != 5 {
		t.Fatalf("the run holds %d records and %d built objects at the snapshot cycle, want 1072 and 5", golden.bareRecords(), len(golden.built))
	}
	snap, err := golden.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The parent built Inject's messages outside the pool; they are pool-born
	// now. Pooled is observer-only (CanonicalBytes leaves it out), so apart
	// from that flag on the three injected messages the bytes are the same.
	parent, err := DecodeV1Snapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := range snap.Messages {
		if i < len(parent.Messages) && !parent.Messages[i].Pooled && snap.Messages[i].Pooled {
			snap.Messages[i].Pooled = false
			flipped++
		}
	}
	if flipped != 3 {
		t.Errorf("%d messages are pool-born now and were not in the parent's file, want the 3 injected ones", flipped)
	}
	got, _ := snapBytes(t, snap)
	if want, _ := snapBytes(t, parent); !bytes.Equal(got, want) {
		t.Error("the same run at the same cycle no longer encodes to the bytes the parent commit's file converts to")
	}
	want := golden.Run()

	for _, workers := range []int{1, 2, 4} {
		written, err := DecodeV1Snapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		cfg := saturatedQueuesConfig()
		cfg.Workers = workers
		e, err := RestoreEngine(cfg, written)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if e.bareRecords() != 1072 || len(e.built) != 5 {
			t.Errorf("workers=%d: the restored queues hold %d records and %d built objects, want 1072 and 5", workers, e.bareRecords(), len(e.built))
		}
		if got := e.Run(); got != want || e.Delivered() != golden.Delivered() || e.Dropped() != golden.Dropped() {
			t.Errorf("workers=%d: resumed run diverged:\n got  %+v\n want %+v", workers, got, want)
		}
		e.Close()
	}
}

// TestSaturatedALOReference holds the paper's regime — every queue backed up,
// ALO denying hundreds of heads a cycle — to the run the object-queue engine of
// PR 14 recorded, at every worker count, with a listener and spans attached:
// the deferred claim, the throttle trace read off the queue at the commit and
// the spans' deny and claim marks are all pinned where they matter most.
func TestSaturatedALOReference(t *testing.T) {
	const row = "saturated-alo"
	cfg, want := equivalenceConfigs()[row], serialReference(t)[row]
	if want.Spans == 0 {
		t.Fatal("no span stream recorded for the row")
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		res, events, _, _, spans := runSpanned(t, cfg, workers)
		label := fmt.Sprintf("workers=%d", workers)
		got := referenceDigest{Events: len(events), EventsSHA: hashEvents(events), Result: fmt.Sprintf("%+v", res)}
		if got.Events != want.Events || got.EventsSHA != want.EventsSHA || got.Result != want.Result {
			t.Errorf("%s: run diverged from the reference:\n got  %+v\n want %+v", label, got, want)
		}
		if len(spans) != want.Spans || hashSpans(spans) != want.SpansSHA {
			t.Errorf("%s: span stream diverged from the reference: %d spans (sha %s), recorded %d (sha %s)",
				label, len(spans), hashSpans(spans), want.Spans, want.SpansSHA)
		}
	}
}

// freeOutVCs counts physical output port p's unallocated virtual channels off
// the ownership state itself.
func freeOutVCs(e *Engine, nd *node, p int) (free int) {
	for v := range e.cfg.VCs {
		if e.ownerOf(nd.id, p*e.cfg.VCs+v) == nil {
			free++
		}
	}
	return free
}

// TestRecoveredMessageBypassesTheLimiter pins the recovery rule of DESIGN §3:
// a recovered message waits RecoveryDelay cycles in the recovery list of the
// node that held its header, then takes the first free injection channel there
// ahead of the source queue, without consulting the limiter — here one that
// denies everything from the recovery on, so the source-queue head stays put.
func TestRecoveredMessageBypassesTheLimiter(t *testing.T) {
	open := true
	e := idle(t, func(c *Config) { c.Limiter, c.LimiterName = core.Shared(gated{&open}), "gated" })
	m := e.Inject(0, 10, 16)
	var at *node // the node whose input buffer holds the header, once one does
	for i := 0; at == nil; i++ {
		if i == 100 {
			t.Fatal("the message's header reached no input buffer in 100 cycles")
		}
		e.Step()
		for _, h := range e.held() {
			if h.m == m && h.head.nd != nil && !h.head.inj {
				at = h.head.nd
			}
		}
	}
	open = false
	head := e.Inject(at.id, 15, 4)
	e.recover(m, at)
	ready := e.Now() + e.cfg.RecoveryDelay
	for e.Now() < ready {
		e.Step()
		if len(at.recovery) != 1 || m.State != message.StateQueued {
			t.Fatalf("cycle %d, before the delay is out: %d recovery entries, message %v", e.Now(), len(at.recovery), m.State)
		}
	}
	e.Step()
	if len(at.recovery) != 0 || e.injOf(at.id)[0].msg != m || m.Injector != at.id {
		t.Fatalf("cycle %d: %d recovery entries, injection channel 0 holds %v, injector %d; want the recovered message re-injected at node %d",
			e.Now(), len(at.recovery), e.injOf(at.id)[0].msg, m.Injector, at.id)
	}
	for i := 0; m.State != message.StateDelivered; i++ {
		if i == 1000 {
			t.Fatalf("the re-injected message is not delivered after 1000 cycles: %v", m.State)
		}
		e.Step()
	}
	if head.State != message.StateQueued || at.queue.Len() != 1 {
		t.Fatalf("the denied source-queue head moved: %v, queue length %d", head.State, at.queue.Len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
