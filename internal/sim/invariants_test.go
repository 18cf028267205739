package sim

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/message"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// The invariant checker is itself load-bearing for the test suite, so these
// tests corrupt engine state deliberately and verify each class of
// violation is caught. Direct buffer pushes must keep the empty word
// consistent, or the derived-state check would mask the targeted one.

func TestInvariantCatchesUntrackedFlit(t *testing.T) {
	e := idle(t, nil)
	m := message.New(999, 0, 5, 4, 0)
	m.FlitsSent = 1
	// A flit parked in a buffer with no path entry.
	e.inOf(3)[0].buf.Push(message.MakeFlit(m, 0))
	e.empty[3] &^= 1
	err := e.CheckInvariants()
	if err == nil {
		t.Fatal("untracked buffered flit not caught")
	}
	if !strings.Contains(err.Error(), "path") {
		t.Errorf("unexpected error: %v", err)
	}
}

// runRefused checks the two places a virtual-channel buffer that is not one
// message's run is stopped today. The buffer cannot represent it, and a
// snapshot stores a buffer as a run, so the corruption the invariant checker
// used to look for is refused where it could arise: Buffer.Push panics inside
// a running engine (push must), and DecodeV1Snapshot refuses a first-layout
// snapshot whose flit list (flits, of messages 1 and 2) spells it out.
func runRefused(t *testing.T, push func(buf *router.Buffer), flits []v1Flit) {
	t.Helper()
	e := idle(t, nil)
	buf := &e.inOf(3)[0].buf
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Push accepted the corruption")
			}
		}()
		push(buf)
	}()

	if _, err := DecodeV1Snapshot(encodeV1(t, flits, nil)); err == nil || !strings.Contains(err.Error(), "one message's run") {
		t.Fatalf("DecodeV1Snapshot: got %v, want an error naming the run", err)
	}
}

func TestInvariantCatchesMixedBuffer(t *testing.T) {
	m1 := message.New(1, 0, 5, 4, 0)
	m2 := message.New(2, 0, 5, 4, 0)
	runRefused(t, func(buf *router.Buffer) {
		buf.Push(message.MakeFlit(m1, 0))
		buf.Push(message.MakeFlit(m2, 0))
	}, []v1Flit{{Msg: 1, Seq: 0, Head: true}, {Msg: 2, Seq: 0, Head: true}})
}

func TestInvariantCatchesFlitCountMismatch(t *testing.T) {
	e := idle(t, nil)
	m := message.New(1, 0, 5, 4, 0)
	m.FlitsSent = 3 // three sent, only one buffered
	m.Tail = pathLoc{Node: 3, Port: 0, VC: 0}
	e.inOf(3)[0].buf.Push(message.MakeFlit(m, 0))
	e.empty[3] &^= 1
	err := e.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "buffered") {
		t.Fatalf("flit conservation not caught: %v", err)
	}
}

func TestInvariantCatchesNonAscendingSeq(t *testing.T) {
	m := message.New(1, 0, 5, 8, 0)
	runRefused(t, func(buf *router.Buffer) {
		buf.Push(message.MakeFlit(m, 2))
		buf.Push(message.MakeFlit(m, 1)) // out of order
	}, []v1Flit{{Msg: 1, Seq: 2}, {Msg: 1, Seq: 1}})
}

// Only their sum ties the message counters to the state: a message lost from a
// recovery list, or a generated count that drifts, shows nowhere else.
func TestInvariantCatchesLostMessage(t *testing.T) {
	e := idle(t, nil)
	m := e.Inject(0, 5, 4)
	for m.State == message.StateQueued {
		e.Step()
	}
	e.Step()
	e.recover(m, &e.nodes[0]) // a real recovery: torn down, waiting in node 0's list
	if err := e.CheckInvariants(); err != nil || len(e.nodes[0].recovery) != 1 {
		t.Fatalf("after the recovery: %v, %d recovery entries", err, len(e.nodes[0].recovery))
	}
	lost := e.nodes[0].recovery
	e.nodes[0].recovery = nil
	err := e.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "0 waiting") || !strings.Contains(err.Error(), "= 1 in flight") {
		t.Fatalf("a message lost from the recovery list not caught: %v", err)
	}
	e.nodes[0].recovery = lost
	e.generated++
	if err = e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "1 waiting") || !strings.Contains(err.Error(), "2-0-0 = 2 in flight") {
		t.Fatalf("a generated count ahead of the state not caught: %v", err)
	}
}

func TestInvariantCatchesDeliveredOwner(t *testing.T) {
	e := idle(t, nil)
	m := message.New(1, 0, 5, 4, 0)
	m.State = message.StateDelivered
	claimVC(e, 2, 0, e.cfg.VCs, m)
	err := e.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "delivered") {
		t.Fatalf("stale allocation not caught: %v", err)
	}
}

func TestInvariantCatchesDeliveredEjection(t *testing.T) {
	e := idle(t, nil)
	m := message.New(1, 0, 5, 4, 0)
	m.State = message.StateDelivered
	e.ejOf(2)[0].msg = m
	err := e.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "ej") {
		t.Fatalf("stale ejection channel not caught: %v", err)
	}
}

func TestInvariantCatchesDuplicatePathEntry(t *testing.T) {
	e := idle(t, nil)
	m1 := message.New(1, 0, 5, 4, 0)
	m2 := message.New(2, 0, 5, 4, 0)
	// Both messages must be discoverable from network state: give each an
	// output virtual-channel allocation, and m2 the path of m1's.
	claimVC(e, 0, 0, 0, m1)
	claimVC(e, 0, 1, 1, m2)
	m1.Tail = e.landing(0, 0, 0)
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "msg 2: path covers 0 of the 1") {
		t.Fatalf("an output VC off its owner's path not caught: %v", err)
	}
	m2.Tail = m1.Tail
	err := e.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "msg 2: path entry 0") || !strings.Contains(err.Error(), "another message") {
		t.Fatalf("duplicate path entry not caught: %v", err)
	}
}

// The record arena behind the source queues and the maps filed beside it are
// held to the queues like the channels: a free list that loops back on
// itself, and one waiting message filed both as an object and as an odd
// length, are each refused.
func TestInvariantCatchesCorruptArena(t *testing.T) {
	e := idle(t, nil)
	for range 3 {
		e.Inject(0, 5, 4)
	}
	e.Step() // three injection channels claim the records: three free slots
	a := &e.waiting
	if err := e.CheckInvariants(); err != nil || a.free == 0 {
		t.Fatalf("before the corruption: %v (free list %d)", err, a.free)
	}
	first := a.free - 1
	next := a.recs[first].next
	a.recs[first].next = first // the first free slot names itself next
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "free list") {
		t.Fatalf("a looping free list not caught: %v", err)
	}
	a.recs[first].next = next

	m := e.Inject(1, 6, 4) // a built record: its object is filed in built
	e.lengths = map[message.ID]int32{m.ID: 7}
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "lengths filed") {
		t.Fatalf("a record filed in built and lengths not caught: %v", err)
	}
	delete(e.lengths, m.ID)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after the repairs: %v", err)
	}
}

// claimVC makes message m the owner of output VC out of node id the way the
// engine does, by a route claiming it: m on injection channel c, routed there.
func claimVC(e *Engine, id topology.NodeID, c, out int, m *message.Message) {
	r := routeInfo{valid: true, outPort: topology.Port(out / e.cfg.VCs), outVC: int8(out % e.cfg.VCs)}
	e.injOf(id)[c] = injChannel{msg: m, route: r, left: int32(m.Length), len: int32(m.Length)}
	e.rederive(&e.nodes[id])
}

// An output VC's owner is the message of the agent routed to it, so it can go
// wrong two ways only: a route on a buffer that names no message (an owner of
// nothing), and two routes on one channel (two owners).
func TestInvariantCatchesRouteOwnershipMismatch(t *testing.T) {
	e := idle(t, nil)
	nd := &e.nodes[3]
	r := routeInfo{valid: true, outPort: 2, outVC: 1}
	e.routesOf(nd.id)[0] = r
	e.rederive(nd)
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "names no message") {
		t.Fatalf("a route on a buffer with no message not caught: %v", err)
	}

	e = idle(t, nil)
	nd = &e.nodes[3]
	m1 := message.New(1, 0, 5, 4, 0)
	m2 := message.New(2, 0, 5, 4, 0)
	m1.Tail = pathLoc{Node: 3, Port: 0, VC: 0}
	m1.FlitsSent = 1
	e.inOf(nd.id)[0].buf.Push(message.MakeFlit(m1, 0))
	e.routesOf(nd.id)[0] = r
	claimVC(e, nd.id, 0, e.inVCIndex(r.outPort, r.outVC), m2) // a second route on the channel
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "one agent per output channel") {
		t.Fatalf("two routes on one output VC not caught: %v", err)
	}
}

func TestInvariantCatchesCounterDrift(t *testing.T) {
	e := idle(t, nil)
	e.nodes[5].wantOut = 1 // nothing is routed
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "wantOut") {
		t.Fatalf("wantOut drift not caught: %v", err)
	}
	e.nodes[5].wantOut = 0
	e.nodes[5].busyInj = 1 // no injection channel is busy
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "busyInj") {
		t.Fatalf("busyInj drift not caught: %v", err)
	}
}

// A status word is a whole register: a bit the router has no channel for is as
// wrong as a flipped one, and the word-form gate and walks would act on it.
func TestInvariantCatchesStrayStatusBit(t *testing.T) {
	for name, corrupt := range map[string]func(e *Engine, nd *node){
		"free":     func(e *Engine, nd *node) { nd.free |= e.inMask + 1 },
		"empty":    func(e *Engine, nd *node) { e.empty[nd.id] |= e.inMask + 1 },
		"full":     func(e *Engine, nd *node) { e.full[nd.id] |= 1 << 63 },
		"routed":   func(e *Engine, nd *node) { nd.routed |= e.inMask + 1 },
		"fresh":    func(e *Engine, nd *node) { nd.fresh |= e.inMask + 1 },
		"freshInj": func(e *Engine, nd *node) { nd.freshInj |= 1 << uint(e.cfg.InjChannels) },
	} {
		e := idle(t, nil)
		corrupt(e, &e.nodes[6])
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s word with a bit above the router's channels not caught: %v", name, err)
		}
	}
}

// The set-id caches of the injection side — the queue's, for its head, and the
// injection channel's — are checked against the table like the input VCs'.
func TestInvariantCatchesStaleSetCache(t *testing.T) {
	e := idle(t, func(c *Config) { c.Limiter, c.LimiterName = core.NewALO(), "alo" })
	e.Inject(0, 5, 4)
	nd := &e.nodes[0]
	nd.queue.set = uint16(e.cand.id(0, 10)) // some other destination's set
	if int32(nd.queue.set) == e.cand.id(0, 5) {
		t.Fatal("test destinations share a candidate set")
	}
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "queue") {
		t.Fatalf("stale queue-head set id not caught: %v", err)
	}
	nd.queue.set = 0
	e.Step() // the gate looks the id up, the claim hands it to the channel
	if e.injOf(nd.id)[0].len == 0 || int32(e.injOf(nd.id)[0].set) != e.cand.id(0, 5) || nd.queue.set != 0 {
		t.Fatalf("claimed channel %+v, queue %+v: want set id %d on the channel and none on the empty queue",
			e.injOf(nd.id)[0], nd.queue, e.cand.id(0, 5))
	}
	e.injOf(nd.id)[0].set = uint16(e.cand.id(0, 10))
	if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "inj[0]") {
		t.Fatalf("stale injection-channel set id not caught: %v", err)
	}
}

// The checker used to rotate every buffer through Pop/Push to look inside,
// leaving the ring indices of the state it had just approved somewhere else.
// It only reads now: every input channel is bit for bit what it was.
func TestCheckInvariantsReadOnly(t *testing.T) {
	e, err := New(equivalenceConfigs()["saturated-recovery"])
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < 400 {
		e.Step()
	}
	before := slices.Clone(e.in)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for a, ivc := range e.in {
		if ivc != before[a] {
			t.Fatalf("node %d channel %d: %+v before the check, %+v after", a/e.nVC, a%e.nVC, before[a], ivc)
		}
		if !ivc.buf.Empty() {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("no buffer held a flit: nothing was checked")
	}
}

// Per-flit storage must not creep back. An input virtual channel is a run:
// owner, then first sequence number, length and the allocator's candidate-set
// id in 16 bits each, and the tail flag — 16 bytes, eighteen to a node of the
// 8-ary 3-cube. The depth is the configuration's and the destination the
// message's, read once per header. The move and allocation phases stream
// through all of them every cycle, and what made them faster than the
// per-flit ring (56 bytes here plus 16 per buffered flit elsewhere) is that
// size, not an instruction count. A field added here needs a benchmark.
func TestInVCStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(inVC{}); got > 16 {
		t.Errorf("inVC is %d bytes, ceiling 16", got)
	}
}

// A node is its status words, counters and id; its channels are in the
// engine's arenas, found by the id. A slice over its run of an arena would be
// 24 bytes that only restate the id.
func TestNodeStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 256 {
		t.Errorf("node is %d bytes, ceiling 256", got)
	}
}

// TestQueuedStaysSmall pins the cost of a waiting message that is a record:
// what a short queue, a restored backlog or a run that cannot replay its
// sources holds, and so, not the 96-byte message.Message, the unit such a
// backlog grows by (beyond saturation a source's backlog is derived instead:
// TestWaitingBytesPerMessage). 24 bytes: id, generation cycle, destination and
// the chain link that lets all queues share one arena — and no pointer, so
// the collector never scans the backlog. Length, measured flag and built-ness
// are derived (see queued). A queue itself is its chain's ends and length
// plus the head's cached candidate-set id: 16 bytes in the node.
func TestQueuedStaysSmall(t *testing.T) {
	if s := unsafe.Sizeof(queued{}); s > 24 {
		t.Errorf("a queue record is %d bytes, want <= 24", s)
	}
	if s := unsafe.Sizeof(srcQueue{}); s > 16 {
		t.Errorf("a node's queue header is %d bytes, want <= 16", s)
	}
}

// TestMessageStaysSmall pins the message object at 96 bytes: the pool holds
// one per message the network has admitted, so it is the engine's largest
// allocation after New. Nothing of its path is stored but the Tail, the oldest
// buffer it holds (the routes it claimed lead on from there), and its
// counters are 32 bits, router.MaxMessageLen bounding the flit counts.
func TestMessageStaysSmall(t *testing.T) {
	if s := unsafe.Sizeof(message.Message{}); s > 96 {
		t.Errorf("a message is %d bytes, want <= 96", s)
	}
}

// Running every limiter inside the engine exercises the channelView glue
// (UsefulPorts/FreeVCs/QueuedMessages/HeadWait) and DRIL's Tick hook.
func TestAllLimitersInsideEngine(t *testing.T) {
	for name, f := range baseline.Factories() {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := QuickConfig()
			cfg.Rate = 1.6 // beyond saturation so limiters actually bind
			cfg.Limiter, cfg.LimiterName = f, name
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2500, 300
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < cfg.TotalCycles(); i++ {
				e.Step()
				if i%173 == 0 {
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

func TestChannelViewQueueReporting(t *testing.T) {
	e := idle(t, nil)
	nd := &e.nodes[0]
	v := channelView{e: e, nd: nd}
	if v.QueuedMessages() != 0 || v.HeadWait() != 0 {
		t.Fatal("empty queue must report zeros")
	}
	e.Inject(0, 5, 4)
	e.Inject(0, 6, 4)
	if v.QueuedMessages() != 2 {
		t.Fatalf("QueuedMessages=%d", v.QueuedMessages())
	}
	// Advance time without injecting (freeze injection by filling all
	// injection channels? simpler: check HeadWait grows with now).
	e.now += 25
	if v.HeadWait() != 25 {
		t.Fatalf("HeadWait=%d want 25", v.HeadWait())
	}
	if v.VCs() != e.cfg.VCs || v.NumPorts() != e.numPhys {
		t.Error("geometry accessors")
	}
	ports := v.UsefulPorts(5)
	if len(ports) == 0 {
		t.Error("UsefulPorts empty for a remote destination")
	}
	for _, p := range ports {
		if v.FreeVCs(p) != e.cfg.VCs {
			t.Error("idle network must have all VCs free")
		}
	}
}
