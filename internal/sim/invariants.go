package sim

import (
	"bytes"
	"fmt"

	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// CheckInvariants validates the global consistency of the simulation state.
// It is O(network size) and intended for tests, which interleave it with
// Step calls; it returns the first violation found. It only reads: the state
// it has checked is bit for bit the state it was given.
//
// Checked invariants:
//  1. Flit conservation: for every message with flits in the network, the
//     flits buffered across all routers equal FlitsSent - FlitsEjected.
//  2. Buffer exclusivity: a virtual-channel buffer only holds flits of a
//     single message, in ascending sequence order (router.Buffer cannot hold
//     anything else; asserted all the same), and the buffer's owner cache
//     names that message.
//  3. Path tracking: every buffer holding flits of a message appears in the
//     message's tracked path (message.Message.Path), and path entries never
//     point at buffers holding another message's flits.
//  4. Allocation consistency: every allocated output virtual channel is
//     owned by a live (undelivered) message, and every valid forward route
//     points at an output virtual channel owned by the routed message.
//  5. Ejection consistency: a busy ejection channel belongs to exactly one
//     in-flight message.
//  6. Active-set counters: each node's occVCs equals its count of non-empty
//     input virtual-channel buffers and busyInj its count of busy injection
//     channels (the phase-skipping optimisation depends on these); a channel
//     has a message exactly when its cached length says busy; and the source
//     queues' records that claim an existing object are the filed objects.
//     Likewise the switch phase's standing requests (want, wantOut) are what
//     the routes say, with no two agents on one output channel; the status
//     words are what the channels say, with no bit the router has no channel
//     for; and a cached candidate-set id (input VC, injection channel, queue
//     head) is the current table's.
//  7. Fault consistency (only with fault injection active): no flit sits in
//     a buffer fed by a dead channel or anywhere on a dead router, no
//     route or sender-side allocation crosses a dead channel, a dead
//     router holds no queued work, and no in-flight message is dropped.
func (e *Engine) CheckInvariants() error {
	// Enumerate every message reachable from network state: buffer fronts,
	// output virtual-channel owners, injection and ejection channels. Every
	// in-flight message holds at least one of those. The channel scans also
	// collect the deferred flit accounting: flits already streamed in (or
	// consumed) but not yet folded into the message's own counters, which
	// happens only when the tail passes.
	inFlight := make(map[*message.Message]bool)
	pendingSent := make(map[*message.Message]int)
	pendingEj := make(map[*message.Message]int)
	for i := range e.nodes {
		nd := &e.nodes[i]
		for a := range nd.in {
			if m := nd.in[a].buf.FrontMessage(); m != nil {
				inFlight[m] = true
			}
		}
		for v := range nd.outVCs {
			if m := nd.outVCs[v].Owner(); m != nil {
				inFlight[m] = true
			}
		}
		for c := range nd.inj {
			if m := nd.inj[c].msg; m != nil {
				inFlight[m] = true
				pendingSent[m] += int(nd.inj[c].len - nd.inj[c].left)
			}
		}
		for c := range nd.ej {
			if m := nd.ej[c].msg; m != nil {
				inFlight[m] = true
				pendingEj[m] += int(nd.ej[c].pending)
			}
		}
	}
	inPath := make(map[pathLoc]*message.Message)
	for m := range inFlight {
		for _, loc := range m.Path {
			if prev, dup := inPath[loc]; dup {
				return fmt.Errorf("path loc %+v tracked for both msg %d and msg %d", loc, prev.ID, m.ID)
			}
			inPath[loc] = m
		}
	}

	buffered := make(map[*message.Message]int)
	built := 0
	var wantBuf [128]uint8 // the width limit keeps a node's entries under 64+64
	want := wantBuf[:len(e.nodes[0].want)]
	for i := range e.nodes {
		nd := &e.nodes[i]
		e.waiting.each(&nd.queue, func(r *queued) {
			if m := e.built[r.id]; r.built && m != nil && m.Dst == r.dst && int32(m.Length) == r.length {
				built++
			}
		})
		occ := 0
		for a := range nd.in {
			ivc := &nd.in[a]
			p := a / e.cfg.VCs
			v := a % e.cfg.VCs
			loc := pathLoc{Node: nd.id, Port: topology.Port(p), VC: int8(v)}
			if ivc.set != 0 && ivc.set != e.cand.id(nd.id, ivc.dst) {
				return fmt.Errorf("node %d in[%d][%d]: cached candidate set %d for dst %d, table says %d",
					nd.id, p, v, ivc.set, ivc.dst, e.cand.id(nd.id, ivc.dst))
			}
			var owner *message.Message
			prevSeq := int32(-1)
			for j := 0; j < ivc.buf.Len(); j++ {
				f := ivc.buf.At(j)
				if owner == nil {
					owner = f.Msg
				} else if owner != f.Msg {
					return fmt.Errorf("node %d in[%d][%d]: flits of msgs %d and %d share a buffer",
						nd.id, p, v, owner.ID, f.Msg.ID)
				}
				if f.Seq <= prevSeq {
					return fmt.Errorf("node %d in[%d][%d]: flit sequence not ascending", nd.id, p, v)
				}
				prevSeq = f.Seq
				buffered[f.Msg]++
			}
			if owner != nil {
				occ++
				if ivc.dst != owner.Dst {
					return fmt.Errorf("node %d in[%d][%d]: dst cache holds node %d but flits belong to msg %d bound for %d",
						nd.id, p, v, ivc.dst, owner.ID, owner.Dst)
				}
				if inPath[loc] != owner {
					return fmt.Errorf("node %d in[%d][%d]: holds msg %d flits but path tracks %v",
						nd.id, p, v, owner.ID, inPath[loc])
				}
			}
			// A valid forward route must point at a VC owned by the
			// buffer's message (or the message that just drained it).
			if rt := nd.routes[a]; rt.valid && !rt.eject && owner != nil {
				if o := nd.outVCs[e.inVCIndex(rt.outPort, rt.outVC)].Owner(); o != owner {
					return fmt.Errorf("node %d in[%d][%d]: route points at VC owned by %v, buffer holds msg %d",
						nd.id, p, v, o, owner.ID)
				}
			}
		}
		if occ != nd.occVCs {
			return fmt.Errorf("node %d: occVCs=%d but %d input buffers are non-empty", nd.id, nd.occVCs, occ)
		}
		if q := &nd.queue; q.set != 0 && (q.Empty() || q.set != e.cand.id(nd.id, e.waiting.front(q).dst)) {
			return fmt.Errorf("node %d: queue of %d caches candidate set %d for its head, the table disagrees", nd.id, q.Len(), q.set)
		}
		busy := 0
		for c := range nd.inj {
			if ic := &nd.inj[c]; ic.len != 0 {
				busy++
				if ic.set != 0 && ic.set != e.cand.id(nd.id, ic.dst) {
					return fmt.Errorf("node %d inj[%d]: cached candidate set %d for dst %d, table says %d",
						nd.id, c, ic.set, ic.dst, e.cand.id(nd.id, ic.dst))
				}
			}
			if ic := &nd.inj[c]; (ic.msg != nil) != (ic.len != 0) || (ic.len != 0 && (ic.left < 1 || ic.left > ic.len)) {
				return fmt.Errorf("node %d inj[%d]: message %v on a channel of cached length %d with %d flits left", nd.id, c, ic.msg, ic.len, ic.left)
			}
		}
		if busy != nd.busyInj {
			return fmt.Errorf("node %d: busyInj=%d but %d injection channels are busy", nd.id, nd.busyInj, busy)
		}
		if out, ok := e.deriveWants(nd, want); !ok || out != nd.wantOut || !bytes.Equal(want, nd.want) {
			// (want itself stays out of the message: it would escape to the heap.)
			return fmt.Errorf("node %d: want=%v wantOut=%#x, but the routes give wantOut=%#x (one agent per output channel: %v)",
				nd.id, nd.want, nd.wantOut, out, ok)
		}
		// The status words against what they summarise. The rebuilt words
		// hold input-VC bits only, so a stray bit above them fails here too.
		var free, empty, full, routed uint64
		for a := range nd.in {
			if m := nd.outVCs[a].Owner(); m != nil && m.State == message.StateDelivered {
				return fmt.Errorf("node %d out[%d].vc[%d] owned by delivered msg %d", nd.id, a/e.cfg.VCs, a%e.cfg.VCs, m.ID)
			}
			bit := uint64(1) << uint(a)
			if nd.outVCs[a].Free() {
				free |= bit
			}
			if nd.in[a].buf.Empty() {
				empty |= bit
			}
			if nd.in[a].buf.Full() {
				full |= bit
			}
			if nd.routes[a].valid {
				routed |= bit
			}
		}
		for _, w := range []struct {
			name      string
			got, want uint64
		}{{"free", nd.free, free}, {"empty", e.empty[i], empty}, {"full", e.full[i], full}, {"routed", nd.routed, routed}} {
			if w.got != w.want {
				return fmt.Errorf("node %d: status word %s=%#x but the channels say %#x", nd.id, w.name, w.got, w.want)
			}
		}
		if nd.fresh&^e.inMask != 0 || nd.freshInj>>uint(len(nd.inj)) != 0 {
			return fmt.Errorf("node %d: fresh=%#x freshInj=%#x name channels the router does not have", nd.id, nd.fresh, nd.freshInj)
		}
		for c := range nd.ej {
			if m := nd.ej[c].msg; m != nil && m.State == message.StateDelivered {
				return fmt.Errorf("node %d ej[%d] held by delivered msg %d", nd.id, c, m.ID)
			}
		}
	}

	for m, n := range buffered {
		sent := m.FlitsSent + pendingSent[m]
		ejected := m.FlitsEjected + pendingEj[m]
		if want := sent - ejected; n != want {
			return fmt.Errorf("msg %d: %d flits buffered, want sent-ejected=%d-%d=%d",
				m.ID, n, sent, ejected, want)
		}
		if m.State == message.StateDelivered {
			return fmt.Errorf("msg %d delivered but still has %d buffered flits", m.ID, n)
		}
	}
	if built != len(e.built) {
		return fmt.Errorf("%d objects filed for waiting messages, %d queue records stand for one", len(e.built), built)
	}
	p := e.par
	// Between cycles every deferral buffer of the schedule must be drained:
	// generation records and globally-ordered events are committed
	// within the cycle that produced them, and every planned cross-shard
	// push is applied by the destination shard before the cycle ends
	// (the consumer's seen stamp must have caught up with every
	// published ring batch).
	for i := range p.shards {
		sh := &p.shards[i]
		if len(sh.gen) != 0 {
			return fmt.Errorf("shard %d: %d uncommitted generation records", i, len(sh.gen))
		}
		if len(sh.events) != 0 {
			return fmt.Errorf("shard %d: %d uncommitted deferred events", i, len(sh.events))
		}
	}
	n := len(p.shards)
	for i := range p.rings {
		r := &p.rings[i]
		if v := r.pub.Load(); v != 0 && r.seen != v {
			return fmt.Errorf("ring %d->%d: published batch (stamp %d, %d pushes) not drained (seen %d)",
				i/n, i%n, v>>32, uint32(v), r.seen)
		}
	}
	// Epoch consistency: every valid route carries the current routing
	// epoch's stamp and claims live capacity (trivially epoch 0 on
	// fault-free runs).
	if err := e.checkRouteEpochs(); err != nil {
		return err
	}
	if e.live != nil {
		return e.checkFaultInvariants(inFlight)
	}
	return nil
}

// checkFaultInvariants validates the liveness-dependent state: the fault
// machinery must leave no flit, route, allocation or queued work on dead
// hardware, and a permanently dropped message must be gone from the
// network.
func (e *Engine) checkFaultInvariants(inFlight map[*message.Message]bool) error {
	for m := range inFlight {
		if m.State == message.StateDropped {
			return fmt.Errorf("dropped msg %d still holds network state", m.ID)
		}
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		alive := e.live.RouterAlive(nd.id)
		if !alive {
			if nd.queue.Len() != 0 || len(nd.recovery) != 0 || len(nd.retry) != 0 {
				return fmt.Errorf("dead node %d still holds queued work (%d/%d/%d)",
					nd.id, nd.queue.Len(), len(nd.recovery), len(nd.retry))
			}
			for c := range nd.inj {
				if nd.inj[c].msg != nil {
					return fmt.Errorf("dead node %d inj[%d] holds msg %d", nd.id, c, nd.inj[c].msg.ID)
				}
			}
			for c := range nd.ej {
				if nd.ej[c].msg != nil {
					return fmt.Errorf("dead node %d ej[%d] holds msg %d", nd.id, c, nd.ej[c].msg.ID)
				}
			}
		}
		for a := range nd.in {
			p := a / e.cfg.VCs
			v := a % e.cfg.VCs
			port := topology.Port(p)
			// The channel feeding nd.in[p*VCs+v] leaves the neighbour
			// through the opposite port.
			feeder := e.topo.Neighbor(nd.id, port)
			feederAlive := e.live.LinkAlive(feeder, topology.Opposite(port))
			ivc := &nd.in[a]
			if (!alive || !feederAlive) && !ivc.buf.Empty() {
				return fmt.Errorf("node %d in[%d][%d]: %d flits behind a dead channel",
					nd.id, p, v, ivc.buf.Len())
			}
			if rt := nd.routes[a]; rt.valid && !rt.eject &&
				!e.live.LinkAlive(nd.id, rt.outPort) {
				return fmt.Errorf("node %d in[%d][%d]: route crosses dead channel (port %d)",
					nd.id, p, v, rt.outPort)
			}
		}
		for o := range nd.outVCs {
			if m := nd.outVCs[o].Owner(); m != nil && !e.live.LinkAlive(nd.id, topology.Port(o/e.cfg.VCs)) {
				return fmt.Errorf("node %d out[%d].vc[%d] on a dead channel owned by msg %d",
					nd.id, o/e.cfg.VCs, o%e.cfg.VCs, m.ID)
			}
		}
	}
	return nil
}

// QueueLengths returns the total source-queue and recovery-queue lengths
// across all nodes (a congestion indicator used by tests and examples).
func (e *Engine) QueueLengths() (source, recovery int) {
	for i := range e.nodes {
		source += e.nodes[i].queue.Len()
		recovery += len(e.nodes[i].recovery)
	}
	return source, recovery
}
