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
	// Latch the sampling decision for the shards before any worker wakes:
	// the channel send (or the inline call) orders the store. Sampled
	// cycles run the identical schedule with the cycle clocks on and a
	// gauge sample appended (metrics.go); results are unchanged.
	p.sampled = e.metricsSampled()
	var t0 time.Time
	if p.sampled {
		t0 = time.Now()
	}
	if e.live != nil {
		e.applyDueFaults()
	}
	if p.inline {
		e.cycleInline(p)
	} else {
		// All shards — the caller acting as shard 0 — execute the cycle in
		// lockstep; the final barrier doubles as the completion signal.
		for _, ch := range p.wake {
			ch <- struct{}{}
		}
		e.cycleShard(p, 0)
	}
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
	nVC := e.numPhys * e.cfg.VCs
	start := int(e.now % int64(nVC))
	// The rotating agent order start, start+1, …, nVC-1, 0, …, start-1 is
	// equivalent to: the start port's VCs from the start VC up, the
	// remaining ports in wrapping order, then the start port's VCs below
	// the start VC. Each port's occupied VCs come off its not-empty status
	// word, so empty channels are never touched.
	ps := start / e.cfg.VCs
	vcsMask := uint32(1)<<uint(e.cfg.VCs) - 1
	hiMask := vcsMask &^ (uint32(1)<<uint(start%e.cfg.VCs) - 1)
	for i := lo; i < hi; i++ {
		nd := &e.nodes[i]
		if nd.occVCs == 0 && nd.busyInj == 0 {
			continue
		}
		if nd.occVCs > 0 {
			e.allocWalk(nd, ps, hiMask)
			for p := ps + 1; p < e.numPhys; p++ {
				e.allocWalk(nd, p, vcsMask)
			}
			for p := 0; p < ps; p++ {
				e.allocWalk(nd, p, vcsMask)
			}
			e.allocWalk(nd, ps, vcsMask&^hiMask)
		}
		// Injection channels route after the network traffic.
		if nd.busyInj > 0 {
			for c := range nd.inj {
				ic := &nd.inj[c]
				if ic.msg == nil || ic.route.valid || ic.left < ic.len {
					continue
				}
				route, ok, _, unroutable := e.allocate(nd, ic.msg, ic.dst)
				switch {
				case ok:
					ic.route = route
					nd.freshInj |= 1 << uint(c)
					if e.spans != nil {
						e.spanAlloc(ic.msg)
					}
				case unroutable:
					e.kill(ic.msg, nd.id)
				}
			}
		}
	}
}

// allocWalk runs header allocation for the occupied, unrouted input VCs of
// one port (restricted to the VCs in mask), in ascending VC order. Channels
// that already hold a route never reach allocateVC: they are masked out by
// the routed status word.
func (e *Engine) allocWalk(nd *node, p int, mask uint32) {
	w := ^nd.inEmpty[p] &^ nd.routed[p] & mask
	base := p * e.cfg.VCs
	for w != 0 {
		v := bits.TrailingZeros32(w)
		w &= w - 1
		e.allocateVC(nd, base+v)
	}
}

// allocateVC is one iteration of the allocation walk: route the header at
// input virtual channel (agent index) a of node nd, feeding the deadlock
// detector on failure.
func (e *Engine) allocateVC(nd *node, a int) {
	ivc := &nd.in[a]
	// The status words are sampled at the start of each port's walk; a
	// deadlock recovery triggered behind it can empty a buffer mid-walk, so
	// the emptiness check stays live.
	if ivc.buf.Empty() {
		return
	}
	// An unrouted, non-empty VC fronts the message's header flit (routes
	// outlive the message's traversal of the buffer); the dst cache spares
	// the allocator the message dereference entirely.
	m := ivc.buf.FrontMessage()
	route, ok, vital, unroutable := e.allocate(nd, m, ivc.dst)
	if ok {
		nd.routes[a] = route
		p := e.portTab[a]
		nd.routed[p] |= e.vcBit[a]
		nd.fresh[p] |= e.vcBit[a]
		if route.eject {
			nd.swDesc[a] = uint16(e.numPhys+int(route.ejCh)) << 8
		} else {
			nd.swDesc[a] = uint16(route.outPort)<<8 | uint16(route.outVC)
		}
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
		return
	}
	if ivc.dst == nd.id {
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
	}
}

// allocate claims an output virtual channel (or ejection channel) for
// message m (dst is the caller's cached copy of m.Dst, so the common
// retry path never loads the message struct) whose header is at node nd.
// It reports whether allocation
// succeeded, whether the candidate set shows any "vital sign" — an
// unallocated virtual channel or one that transmitted a flit within the
// last cycle — which vetoes the deadlock presumption, and whether faults
// left the header with no admissible channel at all (unroutable; only ever
// true when fault injection is active, since minimal routing otherwise
// always yields candidates).
//
// The selection runs entirely on the per-port status words: a port's
// allocatable VCs are freeMask & candidates & downstream-empty, its first
// admissible VC the lowest set bit (candidates are emitted in ascending VC
// order), and its load score a popcount. The vital-sign scan — the only
// part needing per-VC timestamps — runs only when allocation failed.
func (e *Engine) allocate(nd *node, m *message.Message, dst topology.NodeID) (routeInfo, bool, bool, bool) {
	if dst == nd.id {
		for c := range nd.ej {
			if nd.ej[c].msg == nil {
				nd.ej[c].msg = m
				return routeInfo{valid: true, eject: true, ejCh: int8(c), epoch: uint16(e.epoch)}, true, false, false
			}
		}
		return routeInfo{}, false, false, false
	}
	// Candidate lookup: the deduplicated table serves every lookup — the set
	// id array is the only sizeable state it touches, and a blocked header
	// retrying the same destination re-reads the same entry every cycle, so
	// retries stay cache-hot. Fault-capable runs rebuild the table at every
	// routing epoch flip, so the entry always reflects the current liveness
	// mask; faults can leave a header with no candidates at all.
	cands := e.cand.get(nd.id, dst)
	if len(cands) == 0 {
		return routeInfo{}, false, false, true
	}

	bestPort := topology.Port(-1)
	bestVC := int8(-1)
	bestScore := -1
	bestPref := 1 << 30
	rot := int(e.now) % e.numPhys // rotating tie-break among equal ports

	// anyFree doubles as the first vital sign (an unallocated candidate VC):
	// computing it here lets ports with no free candidate VC skip the
	// downstream-status dereference, and the failure path below skip a
	// second scan.
	anyFree := false
	for _, pc := range cands {
		fm := nd.freeMask[pc.port] & pc.mask
		if fm == 0 {
			continue
		}
		anyFree = true
		avail := fm & e.emptyArena[nd.downWord[pc.port]]
		if avail == 0 {
			continue
		}
		// Prefer the least-multiplexed useful channel (most free VCs); the
		// paper's model assumes adaptive routing spreads virtual-channel
		// load across physical channels this way. Ties rotate.
		score := bits.OnesCount32(nd.freeMask[pc.port])
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
	if bestPort < 0 {
		// Nothing allocatable: the deadlock detector's remaining vital sign
		// is a recent transmission on a busy candidate VC.
		vital := anyFree
		if !vital && !e.cfg.LenientDetection {
		active:
			for _, pc := range cands {
				busy := pc.mask &^ nd.freeMask[pc.port]
				base := int(pc.port) * e.cfg.VCs
				for busy != 0 {
					v := bits.TrailingZeros32(busy)
					busy &= busy - 1
					if nd.lastTx[base+v] >= e.now-1 {
						vital = true
						break active
					}
				}
			}
		}
		return routeInfo{}, false, vital, false
	}
	nd.out[bestPort].VCs[bestVC].Allocate(m)
	nd.freeMask[bestPort] &^= 1 << uint(bestVC)
	m.Path = append(m.Path, pathLoc{
		Node: nd.nbr[bestPort].id, Port: topology.Opposite(bestPort), VC: bestVC,
	})
	return routeInfo{valid: true, outPort: bestPort, outVC: bestVC, epoch: uint16(e.epoch)}, true, true, false
}

// switchRange performs separable switch allocation for nodes [lo, hi) — at
// most one flit per input port and per output port per cycle, round-robin at
// both stages — and plans the cycle's flit moves against start-of-cycle
// buffer state, appending them to moves and returning it. reqsFlat is the
// calling shard's request scratch (concurrent shards must not share it).
// Arbiters and status words are all per-node state; the only outside reads
// are the downstream full-status words, which no one writes during the phase.
func (e *Engine) switchRange(lo, hi int, reqsFlat []int32, moves []move) []move {
	// Hot engine state hoisted into locals: the loop bodies below call no
	// function that could change any of it, and keeping the values out of
	// pointer-chased fields lets the compiler hold them in registers.
	numPhys := e.numPhys
	vcs := e.cfg.VCs
	nVC := numPhys * vcs
	nAgents := e.agentCount()
	fullArena := e.fullArena
	// reqLen[o] counts the requests collected for output port o of the node
	// currently under allocation; the requests themselves sit in the flat
	// per-shard scratch at reqsFlat[o*nAgents:], each packed as
	// agent<<16 | outVC<<8 | crossbar-input-port. Port and output VC are
	// known for free at collection time, so the grant stage below runs on
	// the packed words alone — no route or injection-channel loads per
	// candidate. Re-zeroing a 32-entry stack array per active node
	// replaces the stamped-slice bookkeeping.
	var reqLen [32]uint16
	for ni := lo; ni < hi; ni++ {
		nd := &e.nodes[ni]
		if nd.occVCs == 0 && nd.busyInj == 0 {
			continue // no flit anywhere: no requests, no arbiter movement
		}
		reqLen = [32]uint16{}
		// reqMask collects which output ports received at least one request,
		// so the grant stage iterates exactly those instead of scanning all.
		reqMask := uint32(0)

		// Collect requests from the occupied AND routed input virtual
		// channels, skipping ones routed this very cycle (fresh masks;
		// movement starts the cycle after allocation): an unrouted channel
		// has nothing to forward yet, a routed but drained one nothing to
		// forward with. The forwarding data comes from the two-byte switch
		// descriptors written at allocation, not the routeInfo structs.
		for p := 0; p < numPhys; p++ {
			w := ^nd.inEmpty[p] & nd.routed[p] &^ nd.fresh[p]
			nd.fresh[p] = 0
			for w != 0 {
				v := bits.TrailingZeros32(w)
				w &= w - 1
				a := p*vcs + v
				d := nd.swDesc[a]
				o := int(d >> 8)
				if o < numPhys &&
					fullArena[nd.downWord[o]]&(1<<uint(d&0xff)) != 0 {
					continue // no credit: the downstream buffer is full
				}
				reqsFlat[o*nAgents+int(reqLen[o])] = int32(a)<<16 |
					int32(d&0xff)<<8 | int32(p)
				reqLen[o]++
				reqMask |= 1 << uint(o)
			}
		}
		// ... and from injection channels.
		freshInj := nd.freshInj
		nd.freshInj = 0
		if nd.busyInj > 0 {
			for c := range nd.inj {
				ic := &nd.inj[c]
				if ic.msg == nil || !ic.route.valid || freshInj>>uint(c)&1 != 0 ||
					ic.left <= 0 {
					continue
				}
				o := int(ic.route.outPort)
				if ic.route.eject {
					o = numPhys + int(ic.route.ejCh)
				} else if fullArena[nd.downWord[o]]&(1<<uint(ic.route.outVC)) != 0 {
					continue
				}
				reqsFlat[o*nAgents+int(reqLen[o])] = int32(nVC+c)<<16 |
					int32(ic.route.outVC)<<8 | int32(numPhys+c)
				reqLen[o]++
				reqMask |= 1 << uint(o)
			}
		}

		// Grant one requester per output port, honouring the one-flit-per-
		// input-port crossbar constraint (grantedMask: crossbar input ports
		// already granted this node). Walking the request mask from the top,
		// ejection "ports" (the highest indices) go first so that draining
		// traffic is never starved by through traffic.
		grantedMask := uint32(0)
		for reqMask != 0 {
			o := bits.Len32(reqMask) - 1
			reqMask &^= 1 << uint(o)
			// Inline router.RoundRobin.GrantFrom with the input-port-free
			// admissibility check: among the candidates whose crossbar input
			// port is still ungranted, pick the one closest after the
			// arbiter's rotating pointer. Inlining avoids an indirect
			// closure call per candidate on the hottest arbitration loop.
			arb := &nd.outArb[o]
			next := arb.Next()
			best := int32(-1)
			bestDist := nAgents
			base := o * nAgents
			for _, c := range reqsFlat[base : base+int(reqLen[o])] {
				if grantedMask>>uint(c&0xff)&1 != 0 {
					continue
				}
				d := int(c>>16) - next
				if d < 0 {
					d += nAgents
				}
				if d < bestDist {
					bestDist = d
					best = c
				}
			}
			if best < 0 {
				continue
			}
			agent := best >> 16
			arb.Advance(int(agent))
			grantedMask |= 1 << uint(best&0xff)
			mv := move{node: int32(ni), agent: agent}
			if o >= numPhys {
				mv.eject = true
				mv.ejCh = int8(o - numPhys)
			} else {
				mv.outPort = topology.Port(o)
				mv.outVC = int8(best >> 8 & 0xff)
			}
			moves = append(moves, mv)
		}
	}
	return moves
}

// removePathLoc drops one location from a message's tracked path. The tail
// leaves buffers in path order, so the match is normally the front entry;
// the scan is defensive.
func (e *Engine) removePathLoc(m *message.Message, loc pathLoc) {
	for i, l := range m.Path {
		if l == loc {
			m.Path = append(m.Path[:i], m.Path[i+1:]...)
			return
		}
	}
}
