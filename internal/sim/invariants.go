package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// heldMsg is one message the network holds, with what its references say:
// where its header flit sits (head.nd nil when no buffer or injection channel
// has it), how many of its flits the input buffers hold, how many input
// virtual channels name it (hold its flits or are fed by an output VC it
// owns: its path's length), and the flit accounting its channels defer until
// the tail passes — flits its injection channel streamed in, flits its
// ejection channels consumed.
type heldMsg struct {
	m                            *message.Message
	head                         headerSite
	buffered, vcs, sent, ejected int32
}

// headerSite is where a message's header flit sits.
type headerSite struct {
	nd    *node
	agent int32 // input VC index, or injection-channel index when inj
	inj   bool
}

// held returns every message the network holds — in an input buffer, as an
// output virtual channel's owner, on an injection or ejection channel — once,
// in ascending ID, its references merged: the one definition of "in the
// network", which the invariant checker, the wait graph, the snapshot and the
// router-fault kill share. Messages waiting in source, recovery and retry
// queues hold no network state and are not in it. The result is the engine's
// scratch, valid until the next call; between cycles only.
func (e *Engine) held() []heldMsg {
	hs := e.reach[:0]
	for i := range e.nodes {
		nd := &e.nodes[i]
		in := e.inOf(nd.id)
		for a := range in {
			b := &in[a].buf
			if m := b.FrontMessage(); m != nil {
				h := heldMsg{m: m, buffered: int32(b.Len()), vcs: 1}
				if b.Front().Head { // a buffer holds one run: only its front can be the head
					h.head = headerSite{nd: nd, agent: int32(a)}
				}
				hs = append(hs, h)
			}
		}
		for a := range e.nVC {
			// An owner whose flits fill the buffer downstream has its entry there.
			if m := e.ownerOf(nd.id, a); m != nil &&
				e.in[e.downstream(nd.id, topology.Port(a/e.cfg.VCs), a%e.cfg.VCs)].buf.FrontMessage() != m {
				hs = append(hs, heldMsg{m: m, vcs: 1})
			}
		}
		for c, ic := range e.injOf(nd.id) {
			if ic.msg != nil {
				h := heldMsg{m: ic.msg, sent: ic.len - ic.left}
				if ic.left == ic.len { // the head flit has not been streamed yet
					h.head = headerSite{nd: nd, agent: int32(c), inj: true}
				}
				hs = append(hs, h)
			}
		}
		for _, ec := range e.ejOf(nd.id) {
			if ec.msg != nil {
				hs = append(hs, heldMsg{m: ec.msg, ejected: ec.pending})
			}
		}
	}
	e.reach = hs
	// Sorting by ID puts one message's references together; merge them.
	slices.SortFunc(hs, func(a, b heldMsg) int { return cmp.Compare(a.m.ID, b.m.ID) })
	k := 0
	for _, h := range hs {
		if k == 0 || hs[k-1].m != h.m {
			hs[k] = h
			k++
			continue
		}
		p := &hs[k-1]
		if h.head.nd != nil {
			p.head = h.head
		}
		p.buffered += h.buffered
		p.vcs += h.vcs
		p.sent += h.sent
		p.ejected += h.ejected
	}
	return hs[:k]
}

// CheckInvariants validates the global consistency of the simulation state.
// It is O(network size) and intended for tests, which interleave it with
// Step calls; it returns the first violation found. It only reads: the state
// it has checked is bit for bit the state it was given.
//
// Checked invariants:
//  1. Flit conservation: for every message with flits in the network, the
//     flits buffered across all routers equal FlitsSent - FlitsEjected.
//  2. Buffer ownership: a virtual-channel buffer holds nothing but one
//     message's run (router.Buffer: Push refuses anything else, and a
//     snapshot stores a run), and a routed one names its message even
//     while empty — the owner of the output VC its route claims (ownerOf).
//  3. Paths (checkPath): walked from a message's Tail along the routes it
//     claimed, a held message's path is loop-free, never enters another
//     message's virtual channel, and covers every buffer holding its flits
//     and every input VC an output VC it owns feeds; a waiting message holds
//     none (its Tail is NoLoc).
//  4. Allocation consistency: an output VC's owner is the message of the
//     agent routed to it, by construction (ownerOf), so two routes on one
//     channel are the one way to break it: check 6 refuses them.
//  5. Liveness: every message the network holds (held) is in flight —
//     neither delivered nor dropped — and the only object with its id.
//  6. Derived state and caches: each node's words are what derive computes
//     (so no bit names a channel the router lacks and no two agents share an
//     output channel); an injection channel is busy exactly while it has a
//     message, whose destination and length it caches; the queue records
//     that claim an object are the filed objects; and a cached candidate-set
//     id (input VC, injection channel, queue head) is the current table's.
//  7. Fault consistency (only with fault injection active): no flit sits in
//     a buffer fed by a dead channel or anywhere on a dead router, no
//     route or sender-side allocation crosses a dead channel, and a dead
//     router holds no queued work.
//  8. Message conservation: the messages the network holds plus the queue
//     records, recovery and retry entries are the InFlight() the counters
//     give (generated - delivered - dropped).
//  9. Source queues: each derived suffix is what its generator drew
//     (checkSuffixes), and every slot of the record arena is a queue's or
//     on a free list that ends (checkRecords).
func (e *Engine) CheckInvariants() error {
	held := e.held()
	for i, h := range held {
		m := h.m
		if i > 0 && held[i-1].m.ID == m.ID {
			return fmt.Errorf("two message objects in the network share id %d", m.ID)
		}
		if m.State == message.StateDelivered || m.State == message.StateDropped {
			return fmt.Errorf("%s msg %d still holds a buffer, an output VC, or an injection or ejection channel", m.State, m.ID)
		}
		// The channels hold the deferred flit accounting: flits already
		// streamed in (or consumed) but not yet folded into the message's
		// own counters, which happens only when the tail passes.
		sent, ejected := m.FlitsSent+h.sent, m.FlitsEjected+h.ejected
		if want := sent - ejected; h.buffered != 0 && h.buffered != want {
			return fmt.Errorf("msg %d: %d flits buffered, want sent-ejected=%d-%d=%d",
				m.ID, h.buffered, sent, ejected, want)
		}
	}

	// The suffixes first: the walk below replays them.
	if err := e.checkSuffixes(); err != nil {
		return err
	}
	built, odd, waiting, records := 0, 0, 0, 0
	var wantBuf [128]uint8 // the width limit keeps a node's entries under 64+64
	want := wantBuf[:e.nVC+e.cfg.EjChannels]
	var holding *message.Message // a waiting message with a Tail
	for i := range e.nodes {
		nd := &e.nodes[i]
		waiting += nd.queue.Len() + len(nd.recovery) + len(nd.retry)
		records += nd.queue.Len()
		if s := e.suffixOf(nd); s != nil {
			records -= int(s.n)
		}
		e.eachWaiting(nd, func(r *queued) {
			if m := e.object(r.id); m != nil {
				if m.Dst == r.dst && m.GenTime == r.gen {
					built++
				}
				if m.Tail != message.NoLoc {
					holding = m
				}
			} else if l, ok := e.lengths[r.id]; ok && l != int32(e.cfg.MsgLen) {
				odd++
			}
		})
		for _, q := range [...][]pending{nd.recovery, nd.retry} {
			for _, pr := range q {
				if pr.msg.Tail != message.NoLoc {
					holding = pr.msg
				}
			}
		}
		if holding != nil {
			return fmt.Errorf("node %d: waiting msg %d has a path, its Tail at %+v", nd.id, holding.ID, holding.Tail)
		}
		d, ok := e.derive(nd, want)
		for _, w := range [...]struct {
			name      string
			got, want uint64
		}{{"free", nd.free, d.free}, {"empty", e.empty[i], d.empty}, {"full", e.full[i], d.full},
			{"routed", nd.routed, d.routed}, {"wantOut", nd.wantOut, d.wantOut},
			{"busyInj", uint64(nd.busyInj), uint64(d.busyInj)}} {
			if w.got != w.want {
				return fmt.Errorf("node %d: %s=%#x but the durable state gives %#x", nd.id, w.name, w.got, w.want)
			}
		}
		if !ok || !bytes.Equal(want, e.wantOf(nd.id)) {
			// (want itself stays out of the message: it would escape to the heap.)
			return fmt.Errorf("node %d: want=%v, but the routes give another (one agent per output channel: %v)", nd.id, e.wantOf(nd.id), ok)
		}
		routes := e.routesOf(nd.id)
		for a, ivc := range e.inOf(nd.id) {
			// A routed buffer names its message from the header's arrival
			// until the tail leaves; the set id its Note caches is the
			// table's for that message (an empty unrouted buffer's is stale
			// and unread until a head moves in and zeroes it).
			m, live := ivc.buf.Msg(), routes[a].valid || !ivc.buf.Empty()
			if routes[a].valid && m == nil {
				return fmt.Errorf("node %d in[%d][%d]: routed, but names no message", nd.id, a/e.cfg.VCs, a%e.cfg.VCs)
			}
			if live && ivc.buf.Note != 0 && int32(ivc.buf.Note) != e.cand.id(nd.id, m.Dst) {
				return fmt.Errorf("node %d in[%d][%d]: cached candidate set %d for msg %d bound for %d, table says %d",
					nd.id, a/e.cfg.VCs, a%e.cfg.VCs, ivc.buf.Note, m.ID, m.Dst, e.cand.id(nd.id, m.Dst))
			}
		}
		if q := &nd.queue; q.set != 0 && (q.Empty() || int32(q.set) != e.cand.id(nd.id, e.front(nd).dst)) {
			return fmt.Errorf("node %d: queue of %d caches candidate set %d for its head, the table disagrees", nd.id, q.Len(), q.set)
		}
		for c, ic := range e.injOf(nd.id) {
			if (ic.msg != nil) != (ic.len != 0) || (ic.len != 0 && (ic.left < 1 || ic.left > ic.len)) {
				return fmt.Errorf("node %d inj[%d]: message %v on a channel of cached length %d with %d flits left", nd.id, c, ic.msg, ic.len, ic.left)
			}
			if ic.msg == nil {
				continue
			}
			if ic.len != int32(ic.msg.Length) {
				return fmt.Errorf("node %d inj[%d]: caches length %d, but msg %d has %d flits",
					nd.id, c, ic.len, ic.msg.ID, ic.msg.Length)
			}
			if ic.set != 0 && int32(ic.set) != e.cand.id(nd.id, ic.msg.Dst) {
				return fmt.Errorf("node %d inj[%d]: cached candidate set %d for dst %d, table says %d",
					nd.id, c, ic.set, ic.msg.Dst, e.cand.id(nd.id, ic.msg.Dst))
			}
		}
		if nd.fresh&^e.inMask != 0 || nd.freshInj>>uint(e.cfg.InjChannels) != 0 {
			return fmt.Errorf("node %d: fresh=%#x freshInj=%#x name channels the router does not have", nd.id, nd.fresh, nd.freshInj)
		}
	}
	if built != len(e.built) || odd != len(e.lengths) {
		return fmt.Errorf("%d objects and %d lengths filed for waiting messages, %d and %d queue records stand for one",
			len(e.built), len(e.lengths), built, odd)
	}
	if err := e.checkRecords(records); err != nil {
		return err
	}
	for i := range held {
		if err := e.checkPath(&held[i]); err != nil {
			return err
		}
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
		if len(sh.gen) != 0 || len(sh.starts) != 0 {
			return fmt.Errorf("shard %d: %d uncommitted generation records, %d start positions", i, len(sh.gen), len(sh.starts))
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
		if err := e.checkFaultInvariants(); err != nil {
			return err
		}
	}
	if n := int64(len(held) + waiting); n != e.InFlight() {
		return fmt.Errorf("%d messages held by the network and %d waiting, but generated-delivered-dropped = %d-%d-%d = %d in flight",
			len(held), waiting, e.generated, e.delivered, e.dropped, e.InFlight())
	}
	return nil
}

// checkPath walks the path of the held message h.m from its Tail along the
// routes it claimed (nextLoc). Each buffer on it must name the message: hold
// its flits or — as every one past the first must — be fed by an output VC it
// owns; and no other message may have flits there or own that output VC. The
// path then covers the h.vcs input VCs that name the message exactly when it
// ends after h.vcs of them, which also bounds the walk: a longer one loops.
func (e *Engine) checkPath(h *heldMsg) error {
	m := h.m
	if m.Tail != message.NoLoc && !e.locInRange(m.Tail) {
		return fmt.Errorf("msg %d: Tail %+v names no input virtual channel", m.ID, m.Tail)
	}
	n := int32(0)
	for loc, more := m.Tail, m.Tail != message.NoLoc; more; loc, more = e.nextLoc(loc) {
		a := e.inVCIndex(loc.Port, loc.VC)
		held := e.inOf(loc.Node)[a].buf.FrontMessage()
		up := e.topo.Neighbor(loc.Node, loc.Port)
		fed := e.ownerOf(up, e.inVCIndex(topology.Opposite(loc.Port), loc.VC))
		if (held != nil && held != m) || (fed != nil && fed != m) {
			return fmt.Errorf("msg %d: path entry %d, node %d in[%d][%d], belongs to another message (flits of %v, fed by %v)",
				m.ID, n, loc.Node, loc.Port, loc.VC, held, fed)
		}
		if fed != m && (n > 0 || held != m) {
			return fmt.Errorf("msg %d: path entry %d, node %d in[%d][%d], neither holds its flits nor is fed by a channel it owns",
				m.ID, n, loc.Node, loc.Port, loc.VC)
		}
		if n++; n > h.vcs {
			return fmt.Errorf("msg %d: path loops (more than the %d input VCs that name it)", m.ID, h.vcs)
		}
	}
	if n != h.vcs {
		return fmt.Errorf("msg %d: path covers %d of the %d input VCs that name it", m.ID, n, h.vcs)
	}
	return nil
}

// checkRecords holds the record arena to the source queues: the slots their
// explicit prefixes chain (held of them) and the free list are all of it, and
// the free list ends.
func (e *Engine) checkRecords(held int) error {
	a := &e.waiting
	free := 0
	for i := a.free; i != 0; i = a.recs[i-1].next + 1 {
		if i < 0 || int(i) > len(a.recs) || free == len(a.recs) {
			return fmt.Errorf("record arena: the free list leaves its %d slots or loops", len(a.recs))
		}
		free++
	}
	if held+free != len(a.recs) {
		return fmt.Errorf("record arena: the queues hold %d records and %d slots are free, of %d", held, free, len(a.recs))
	}
	return nil
}

// checkSuffixes validates the derived suffixes of the source queues. A node's
// suffix holds between one message and its whole queue (one a section
// emptied is given back at the section's commit), and only a run that
// replays its sources has one. Replayed from its cursor, it is exactly its
// messages: one delta each behind the head, ids rising to its last, every one
// generated before this cycle; and, polled on through the cycle before the
// generator's next event, the replay lands on the live generator's position —
// so no message the generator drew is missing from the queue. Slots and
// chunks no suffix holds are on the free lists: the arena leaks nothing.
func (e *Engine) checkSuffixes() error {
	a := &e.suffixes
	slots, chunks := int32(0), int32(0)
	for i := range e.nodes {
		nd := &e.nodes[i]
		if nd.sfx == 0 {
			continue
		}
		if !e.replay || nd.sfx < 0 || int(nd.sfx) > len(a.slots) {
			return fmt.Errorf("node %d: derived suffix %d in a run with %d slots (replaying sources: %v)", nd.id, nd.sfx, len(a.slots), e.replay)
		}
		s := e.suffixOf(nd)
		if s.n < 1 || s.n > nd.queue.n {
			return fmt.Errorf("node %d: a derived suffix of %d messages in a queue of %d", nd.id, s.n, nd.queue.n)
		}
		if s.head.gen >= e.now || s.last >= e.nextID || s.head.id > s.last {
			return fmt.Errorf("node %d: derived head %d generated at %d, last id %d, at cycle %d with next id %d",
				nd.id, s.head.id, s.head.gen, s.last, e.now, e.nextID)
		}
		src := nd.replayer()
		w := &e.walk
		*w = *s
		prev := s.head
		for k := int32(1); k < s.n; k++ {
			g, at, ok := src.Replay(&w.cur, e.now-1)
			if !ok || w.rd == w.wr {
				return fmt.Errorf("node %d: a derived suffix of %d messages replays %d (generator drew one: %v)", nd.id, s.n, k, ok)
			}
			r := queued{id: a.getID(&w.rd, prev.id), gen: at, dst: g.Dst}
			if r.id <= prev.id || r.gen < prev.gen {
				return fmt.Errorf("node %d: derived message %d (cycle %d) behind %d (cycle %d)", nd.id, r.id, r.gen, prev.id, prev.gen)
			}
			prev = r
		}
		if prev.id != s.last || w.rd != s.wr {
			return fmt.Errorf("node %d: derived suffix ends at id %d, last is %d; deltas read to %d, written to %d",
				nd.id, prev.id, s.last, w.rd, s.wr)
		}
		src.SaveCursor(&e.cursor)
		if _, at, ok := src.Replay(&w.cur, src.NextAt()-1); ok || w.cur != e.cursor {
			return fmt.Errorf("node %d: the generator drew a message at cycle %d (%v) behind its derived suffix, or the suffix's stream is not its own", nd.id, at, ok)
		}
		slots++
		if s.hold >= 0 {
			for c := s.hold; ; c = a.link(c) {
				if chunks++; chunks > a.chunks {
					return fmt.Errorf("node %d: derived suffix chains more chunks than the arena has", nd.id)
				}
				if c == s.wr/chunkWords {
					break
				}
			}
		}
	}
	for i := a.free; i != 0; i = a.slots[i-1].head.next + 1 {
		if slots++; int(slots) > len(a.slots) {
			return fmt.Errorf("derived suffix slots: the free list runs past the %d slots", len(a.slots))
		}
	}
	for c := a.freeCh; c != 0; c = a.link(c-1) + 1 {
		if chunks++; chunks > a.chunks {
			return fmt.Errorf("derived suffix chunks: the free list runs past the %d chunks", a.chunks)
		}
	}
	if int(slots) != len(a.slots) || chunks != a.chunks {
		return fmt.Errorf("derived suffixes hold or free %d of %d slots and %d of %d chunks", slots, len(a.slots), chunks, a.chunks)
	}
	return nil
}

// checkFaultInvariants validates the liveness-dependent state: the fault
// machinery must leave no flit, route, allocation or queued work on dead
// hardware.
func (e *Engine) checkFaultInvariants() error {
	for i := range e.nodes {
		nd := &e.nodes[i]
		alive := e.live.RouterAlive(nd.id)
		if !alive {
			// (busyInj counts the channels holding a message: checked above.)
			if nd.queue.Len() != 0 || len(nd.recovery) != 0 || len(nd.retry) != 0 || nd.busyInj != 0 {
				return fmt.Errorf("dead node %d still holds queued work (%d/%d/%d) or injects %d messages",
					nd.id, nd.queue.Len(), len(nd.recovery), len(nd.retry), nd.busyInj)
			}
			for c, ec := range e.ejOf(nd.id) {
				if ec.msg != nil {
					return fmt.Errorf("dead node %d ej[%d] holds msg %d", nd.id, c, ec.msg.ID)
				}
			}
		}
		for a := range e.nVC {
			p := a / e.cfg.VCs
			v := a % e.cfg.VCs
			port := topology.Port(p)
			// The channel feeding input VC p*VCs+v leaves the neighbour
			// through the opposite port.
			feeder := e.topo.Neighbor(nd.id, port)
			feederAlive := e.live.LinkAlive(feeder, topology.Opposite(port))
			ivc := &e.inOf(nd.id)[a]
			if (!alive || !feederAlive) && !ivc.buf.Empty() {
				return fmt.Errorf("node %d in[%d][%d]: %d flits behind a dead channel",
					nd.id, p, v, ivc.buf.Len())
			}
			if rt := e.routesOf(nd.id)[a]; rt.valid && !rt.eject &&
				!e.live.LinkAlive(nd.id, rt.outPort) {
				return fmt.Errorf("node %d in[%d][%d]: route crosses dead channel (port %d)",
					nd.id, p, v, rt.outPort)
			}
			if m := e.ownerOf(nd.id, a); m != nil && !e.live.LinkAlive(nd.id, port) {
				return fmt.Errorf("node %d out[%d].vc[%d] on a dead channel owned by msg %d", nd.id, p, v, m.ID)
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
