package sim

import (
	"math/bits"
	"time"

	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// Step advances the simulation by one cycle, running the five phases in
// order: generation, injection, virtual-channel allocation (with deadlock
// detection), switch allocation, and flit movement — as the sections and
// commit points of the cycle schedule (parallel.go), over however many
// shards the engine has. When fault injection is active, scheduled failures
// apply first, serially at the cycle boundary (they are rare and inherently
// global — teardowns cross shards), so a failure at cycle t is visible to
// every decision of cycle t; without a fault schedule that reduces to one
// nil check.
//
// Every phase is active-set scheduled: nodes with no buffered flits, no
// streaming injection channel and no pending source work are skipped
// outright, so an idle region of the network costs (close to) nothing per
// cycle. The skips are exact no-op eliminations — a skipped node would not
// have changed any state, including arbiter pointers — so results are
// bit-for-bit identical to exhaustive iteration (see TestGoldenDeterminism).
func (e *Engine) Step() {
	p := e.par
	// Latch the sampling decision for the shards before any worker starts:
	// the cycle stamp orders the store. Sampled cycles run the identical
	// schedule with the cycle clocks on and a gauge sample appended
	// (metrics.go); results are unchanged.
	p.sampled = e.metricsSampled()
	var t0 time.Time
	if p.sampled {
		t0 = time.Now()
	}
	if e.live != nil {
		e.applyDueFaults()
	}
	// All shards — the caller acting as shard 0 — execute the cycle in
	// lockstep; the final barrier doubles as the completion signal.
	for i := range p.workers {
		p.workers[i].signal()
	}
	e.cycleShard(p, 0)
	if e.met != nil {
		e.recordCycle(p, t0)
	}
	e.now++
}

// allocRange runs the allocation phase for nodes [lo, hi): every input
// virtual channel whose front flit is an unrouted header executes the
// routing function and tries to claim an output virtual channel (or an
// ejection channel at the destination); injection channels do the same for
// messages about to enter the network. Headers that fail allocation feed the
// deadlock detector.
//
// Every read outside the node itself — neighbour empty-status words, the
// candidate table — is stable for the duration of the phase, and every write
// lands on the node's own state, so disjoint ranges commute (see
// parallel.go for the full argument, including why recovery and fault kills
// never run while several shards allocate).
//
// The rotating start index is derived from the cycle counter rather than
// stored per node: the per-node pointer advanced by exactly one every
// cycle regardless of activity, so it always equalled now % nAgents —
// deriving it makes skipping idle nodes free of state drift.
func (e *Engine) allocRange(lo, hi int) {
	below := uint64(1)<<uint(e.now%int64(e.nVC)) - 1 // the agents before start
	for i := lo; i < hi; i++ {
		nd := &e.nodes[i]
		occ := e.inMask &^ e.empty[i]
		if occ == 0 && nd.busyInj == 0 {
			continue
		}
		var w allocWords // packed by the node's first attempt, if any
		// The unrouted headers — occupied AND NOT routed, off the status words,
		// so empty and routed channels are never touched — walked in the
		// rotating order start, …, nVC-1, 0, …, start-1. A teardown mid-walk
		// only empties channels, and allocateVC looks again.
		hdr := occ &^ nd.routed
		for _, h := range [2]uint64{hdr &^ below, hdr & below} {
			for ; h != 0; h &= h - 1 {
				e.allocateVC(nd, bits.TrailingZeros64(h), &w)
			}
		}
		// Injection channels route after the network traffic.
		if nd.busyInj > 0 {
			inj := e.injOf(nd.id)
			for c := range inj {
				ic := &inj[c]
				if ic.msg == nil || ic.route.valid || ic.left < ic.len {
					continue
				}
				route, ok, _, unroutable := e.allocate(nd, ic.msg, &ic.set, &w)
				switch {
				case ok:
					ic.route = route
					if !route.eject {
						// The message's first input VC: its path starts here.
						ic.msg.Tail = e.landing(nd.id, route.outPort, route.outVC)
					}
					e.setWant(nd, e.injIndex(c), route)
					nd.freshInj |= 1 << uint(c)
					if e.spans != nil {
						e.spanAlloc(ic.msg)
					}
				case unroutable:
					e.kill(ic.msg, nd.id)
					w.packed = false
				}
			}
		}
	}
}

// allocateVC is one iteration of the allocation walk: route the header at
// input virtual channel (agent index) a of node nd, feeding the deadlock
// detector on failure.
func (e *Engine) allocateVC(nd *node, a int, w *allocWords) {
	at := int(nd.id)*e.nVC + a
	ivc := &e.in[at]
	// The status words are sampled at the start of the node's walk; a
	// deadlock recovery triggered behind it can empty a buffer mid-walk, so
	// the emptiness check stays live.
	if ivc.buf.Empty() {
		return
	}
	// An unrouted, non-empty VC fronts the message's header flit (routes
	// outlive the message's traversal of the buffer); the set-id cache in
	// the buffer's Note spares a retry the message dereference entirely.
	m := ivc.buf.FrontMessage()
	route, ok, vital, unroutable := e.allocate(nd, m, &ivc.buf.Note, w)
	if ok {
		e.routes[at] = route
		nd.routed |= 1 << uint(a)
		nd.fresh |= 1 << uint(a)
		e.setWant(nd, a, route)
		nd.blocked.Progress(a)
		if e.spans != nil {
			e.spanAlloc(m)
		}
		return
	}
	if unroutable {
		// Faults left the header with no admissible channel at all: the
		// wormhole can never advance from here. Sever it and hand it back
		// to the source-retry machinery.
		e.kill(m, nd.id)
		w.packed = false
		return
	}
	if int32(ivc.buf.Note) == e.cand.self {
		// Waiting for an ejection channel: always drains eventually, never
		// a deadlock.
		nd.blocked.Progress(a)
		return
	}
	// FC3D-style criterion: only sustained stillness counts. Any sign of
	// life on the header's candidate channels — a free virtual channel or a
	// recent flit transmission — resets the blockage counter.
	if vital {
		nd.blocked.Progress(a)
		return
	}
	if e.det.Deadlocked(nd.blocked.Blocked(a), false) {
		nd.blocked.Progress(a)
		e.recover(m, nd)
		w.packed = false
	}
}

// allocWords is what one cycle's allocation attempts at a node gather from
// its neighbours: avail has the node's unallocated output virtual channels
// (node.free) whose downstream buffer is empty too, in the same bit order.
// Within a node's walk only its own grants (one bit, cleared in both words)
// and a teardown (recover, kill: packed is reset and the next attempt packs
// again) change it.
type allocWords struct {
	avail  uint64
	packed bool
}

// pack lines the neighbours' empty fields up with the node's output ports:
// the buffers port p feeds are field Opposite(p) of the neighbour's word.
func (e *Engine) pack(nd *node, w *allocWords) {
	vcs := uint(e.cfg.VCs)
	field := uint64(1)<<vcs - 1
	var down uint64
	for p, nb := range cut(e.nbr, int(nd.id), e.numPhys) {
		opp := uint(topology.Opposite(topology.Port(p)))
		down |= (e.empty[nb] >> (opp * vcs) & field) << (uint(p) * vcs)
	}
	*w = allocWords{avail: nd.free & down, packed: true}
}

// allocate claims an output virtual channel (or ejection channel) for
// message m whose header is at node nd (set is its cached candidate-set id,
// looked up here from m.Dst when still 0, so a retry loads neither the
// message nor the class table; the self set marks a header at its
// destination). It reports
// whether allocation succeeded, whether the candidate set shows any "vital
// sign" — an unallocated virtual channel or one that transmitted a flit
// within the last cycle — which vetoes the deadlock presumption, and whether
// faults left the header with no admissible channel at all (unroutable; only
// ever true when fault injection is active, since minimal routing otherwise
// always yields candidates).
//
// A header that cannot be allocated — most of them, beyond saturation — is
// decided on words: nothing is allocatable when avail AND the set's word is
// zero, and then a free candidate (node.free AND the word) is the first vital
// sign and the per-VC timestamps of the busy candidates the second. Only a
// header that will get a channel reaches the per-port scoring loop.
func (e *Engine) allocate(nd *node, m *message.Message, set *uint16, w *allocWords) (routeInfo, bool, bool, bool) {
	id := e.setOf(nd, m, set)
	if id == e.cand.self {
		for c := range e.cfg.EjChannels {
			if ej := &e.ejOf(nd.id)[c]; ej.msg == nil {
				ej.msg = m
				return routeInfo{valid: true, eject: true, ejCh: int8(c), epoch: uint16(e.epoch)}, true, false, false
			}
		}
		return routeInfo{}, false, false, false
	}
	candW := e.cand.word[id]
	if candW == 0 {
		return routeInfo{}, false, false, true // faults left no candidate
	}
	if !w.packed {
		e.pack(nd, w)
	}
	if w.avail&candW == 0 {
		vital := nd.free&candW != 0
		if !vital && !e.cfg.LenientDetection {
			// Every candidate is busy: did any transmit within the last cycle?
			for busy := candW; busy != 0; busy &= busy - 1 {
				if e.lastTxOf(nd.id)[bits.TrailingZeros64(busy)] >= e.now-1 {
					vital = true
					break
				}
			}
		}
		return routeInfo{}, false, vital, false
	}

	bestPort := topology.Port(-1)
	bestVC := int8(-1)
	bestScore := -1
	bestPref := 1 << 30
	rot := int(e.now) % e.numPhys // rotating tie-break among equal ports
	vcs := uint(e.cfg.VCs)
	field := uint64(1)<<vcs - 1
	for _, pc := range e.cand.set(id) {
		at := uint(pc.port) * vcs
		avail := uint32(w.avail>>at) & pc.mask
		if avail == 0 {
			continue
		}
		// Prefer the least-multiplexed useful channel (most free VCs); the
		// paper's model assumes adaptive routing spreads virtual-channel
		// load across physical channels this way. Ties rotate.
		score := bits.OnesCount64(nd.free >> at & field)
		pref := int(pc.port) - rot // rotating distance, without the division
		if pref < 0 {
			pref += e.numPhys
		}
		if score > bestScore || (score == bestScore && pref < bestPref) {
			bestScore, bestPref = score, pref
			bestPort = pc.port
			bestVC = int8(bits.TrailingZeros32(avail))
		}
	}
	// The output VC is m's from here: the route returned claims it (ownerOf).
	out := e.inVCIndex(bestPort, bestVC)
	nd.free, w.avail = nd.free&^(1<<uint(out)), w.avail&^(1<<uint(out))
	return routeInfo{valid: true, outPort: bestPort, outVC: bestVC, epoch: uint16(e.epoch)}, true, true, false
}

// switchRange performs separable switch allocation for nodes [lo, hi) — at
// most one flit per crossbar input and per output per cycle — and plans the
// cycle's flit moves against start-of-cycle buffer state, appending them to
// moves and returning it. Only outputs arbitrate (one round-robin pointer
// each); an input goes to the first output, from the top, that picks it.
//
// Nothing is collected: who wants an output is standing state (want), so
// a cycle computes one word, ready — the agents with a flit to forward: input
// VCs occupied AND routed, but not this very cycle (fresh words: movement
// starts the cycle after allocation), and streaming injection channels — and
// each wanted output grants over (its wanters with downstream credit) AND
// ready, the winner taking its crossbar input's agents out of ready.
// Arbiters and status words are all per-node state; the only outside reads
// are the downstream full-status words, which no one writes during the phase.
func (e *Engine) switchRange(lo, hi int, moves []move) []move {
	// Hot engine state hoisted into locals: the loop bodies below call no
	// function that could change any of it, and keeping the values out of
	// pointer-chased fields lets the compiler hold them in registers.
	numPhys := e.numPhys
	vcs := e.cfg.VCs
	nVC := e.nVC
	nWant, numOut := nVC+e.cfg.EjChannels, numPhys+e.cfg.EjChannels
	empty, full, inMask := e.empty, e.full, e.inMask
	injAll := uint64(1)<<uint(e.cfg.InjChannels) - 1
	for ni := lo; ni < hi; ni++ {
		nd := &e.nodes[ni]
		// No flit anywhere, or no route (so no fresh bit either): no grant, no
		// arbiter movement.
		if nd.wantOut == 0 || (empty[ni] == inMask && nd.busyInj == 0) {
			continue
		}
		// A routed injection channel has flits left to stream (the tail takes
		// the route with it), and an unrouted one is nobody's wanter.
		ready := nd.routed&^empty[ni]&^nd.fresh | (injAll&^nd.freshInj)<<uint(nVC)
		nd.fresh, nd.freshInj = 0, 0
		want, nbr, arb := cut(e.want, ni, nWant), cut(e.nbr, ni, numPhys), cut(e.outArb, ni, numOut)
		// Outputs from the top: ejection channels (the highest indices) go
		// first so that draining traffic is never starved by through traffic.
		for out := nd.wantOut; out != 0 && ready != 0; {
			o := bits.Len64(out) - 1
			out &^= 1 << uint(o)
			mv := move{node: int32(ni), eject: o >= numPhys}
			var cands uint64
			var wants []uint8 // of a physical port's VCs
			if mv.eject {
				mv.ejCh = int8(o - numPhys)
				cands = 1 << want[nVC+o-numPhys]
			} else {
				mv.outPort = topology.Port(o)
				wants = want[o*vcs : (o+1)*vcs]
				// Credit: the downstream buffer has a slot free.
				down := full[nbr[o]] >> uint(int(topology.Opposite(mv.outPort))*vcs)
				for v, a := range wants {
					cands |= 1 << a & (down>>uint(v)&1 - 1)
				}
			}
			a := arb[o].GrantMask(cands & ready)
			if a < 0 {
				continue
			}
			ready &^= e.xbarMask[a]
			mv.agent = int32(a)
			for v, w := range wants {
				if int(w) == a {
					mv.outVC = int8(v)
				}
			}
			moves = append(moves, mv)
		}
	}
	return moves
}
