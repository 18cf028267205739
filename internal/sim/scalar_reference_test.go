package sim

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// The scalar allocators that the word-parallel ones of cycle.go replaced,
// kept — as ring_reference_test.go keeps the old buffer — as the reference the
// new ones are checked against, decision by decision. The loops are the old
// ones verbatim; what had to change is named where it did. The per-port status
// words they read are fields of the one-word registers now (field, downField).

// field returns physical port p's VCs bits of status word w.
func (e *Engine) field(w uint64, p int) uint32 {
	return uint32(w>>uint(p*e.cfg.VCs)) & (1<<uint(e.cfg.VCs) - 1)
}

// downField returns the bits, in reg (Engine.empty or Engine.full), of the
// buffers nd's output port p feeds.
func (e *Engine) downField(reg []uint64, nd *node, p int) uint32 {
	return e.field(reg[e.nbr[int(nd.id)*e.numPhys+p]], int(topology.Opposite(topology.Port(p))))
}

// scalarAllocate is the deciding half of the old allocate: the ejection scan,
// the per-candidate loop over the status words and, on failure, the vital-sign
// scan, with the claim left out (the allocator under test makes it).
func (e *Engine) scalarAllocate(nd *node, dst topology.NodeID) (routeInfo, bool, bool, bool) {
	if dst == nd.id {
		for c, ec := range e.ejOf(nd.id) {
			if ec.msg == nil {
				return routeInfo{valid: true, eject: true, ejCh: int8(c), epoch: uint16(e.epoch)}, true, false, false
			}
		}
		return routeInfo{}, false, false, false
	}
	cands := e.cand.get(nd.id, dst)
	if len(cands) == 0 {
		return routeInfo{}, false, false, true
	}

	bestPort := topology.Port(-1)
	bestVC := int8(-1)
	bestScore := -1
	bestPref := 1 << 30
	rot := int(e.now) % e.numPhys // rotating tie-break among equal ports

	anyFree := false
	for _, pc := range cands {
		fm := e.field(nd.free, int(pc.port)) & pc.mask
		if fm == 0 {
			continue
		}
		anyFree = true
		avail := fm & e.downField(e.empty, nd, int(pc.port))
		if avail == 0 {
			continue
		}
		score := bits.OnesCount32(e.field(nd.free, int(pc.port)))
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
		vital := anyFree
		if !vital && !e.cfg.LenientDetection {
		active:
			for _, pc := range cands {
				busy := pc.mask &^ e.field(nd.free, int(pc.port))
				base := int(pc.port) * e.cfg.VCs
				for busy != 0 {
					v := bits.TrailingZeros32(busy)
					busy &= busy - 1
					if e.lastTxOf(nd.id)[base+v] >= e.now-1 {
						vital = true
						break active
					}
				}
			}
		}
		return routeInfo{}, false, vital, false
	}
	return routeInfo{valid: true, outPort: bestPort, outVC: bestVC, epoch: uint16(e.epoch)}, true, true, false
}

// scalarSwitchRange is the old switchRange: copy every request into a slab,
// packed as agent<<16 | outVC<<8 | crossbar-input-port, then scan the slab once
// per requested output. The two-byte switch descriptors it read are gone, so a
// request's output comes from the agent's route.
func (e *Engine) scalarSwitchRange(lo, hi int, reqsFlat []int32, moves []move) []move {
	numPhys := e.numPhys
	vcs := e.cfg.VCs
	nVC := numPhys * vcs
	nAgents := e.agentCount()
	var reqLen [64]uint16
	for ni := lo; ni < hi; ni++ {
		nd := &e.nodes[ni]
		if e.empty[ni] == e.inMask && nd.busyInj == 0 {
			continue // no flit anywhere: no requests, no arbiter movement
		}
		reqLen = [64]uint16{}
		reqMask := uint64(0)

		for p := 0; p < numPhys; p++ {
			w := ^e.field(e.empty[ni], p) & e.field(nd.routed, p) &^ e.field(nd.fresh, p)
			for w != 0 {
				v := bits.TrailingZeros32(w)
				w &= w - 1
				a := p*vcs + v
				rt := e.routesOf(nd.id)[a]
				o, outVC := int(rt.outPort), int32(rt.outVC)
				if rt.eject {
					o, outVC = numPhys+int(rt.ejCh), 0
				}
				if o < numPhys &&
					e.downField(e.full, nd, o)&(1<<uint(outVC)) != 0 {
					continue // no credit: the downstream buffer is full
				}
				reqsFlat[o*nAgents+int(reqLen[o])] = int32(a)<<16 | outVC<<8 | int32(p)
				reqLen[o]++
				reqMask |= 1 << uint(o)
			}
		}
		nd.fresh = 0
		// ... and from injection channels.
		freshInj := nd.freshInj
		nd.freshInj = 0
		if nd.busyInj > 0 {
			inj := e.injOf(nd.id)
			for c := range inj {
				ic := &inj[c]
				if ic.msg == nil || !ic.route.valid || freshInj>>uint(c)&1 != 0 ||
					ic.left <= 0 {
					continue
				}
				o := int(ic.route.outPort)
				if ic.route.eject {
					o = numPhys + int(ic.route.ejCh)
				} else if e.downField(e.full, nd, o)&(1<<uint(ic.route.outVC)) != 0 {
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
		// already granted this node), ejection "ports" first.
		grantedMask := uint64(0)
		for reqMask != 0 {
			o := bits.Len64(reqMask) - 1
			reqMask &^= 1 << uint(o)
			arb := &e.arbOf(nd.id)[o]
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

// scalarDriver steps an engine through the cycle schedule by hand (one shard,
// the sections and commits of cycleShard) with both allocators at every
// decision point: each header is decided by scalarAllocate and then by
// allocate on the same state, each cycle's grants by scalarSwitchRange and then,
// from the same fresh masks and arbiter pointers, by switchRange.
type scalarDriver struct {
	t        *testing.T
	e        *Engine
	label    string
	reqsFlat []int32
	scalar   []move
	headers  int // decisions compared
	refused  int // of which: not allocated
	gated    int // injection-gate decisions compared
	denied   int // of which: denials, whose rule attribution was compared too
}

// noTrace is attached to the driven engine so that its injection section
// records every denial (evThrottle) where gateBoth can see it.
type noTrace struct{}

func (noTrace) Emit(trace.Event) {}

func (d *scalarDriver) step() {
	e := d.e
	p := e.par
	sh := &p.shards[0]
	if e.live != nil {
		e.applyDueFaults()
	}
	e.generateRange(sh)
	e.commitGenerate(p)
	e.injectRange(p, sh)
	d.gateBoth(sh)
	e.commitInject(p)
	d.allocRange()
	d.switchBoth(sh)
	e.moveSourceRange(p, sh, 0)
	e.moveDrainRings(p, sh, 0)
	e.commitEvents(p)
	e.now++
}

// gateBoth holds every decision the injection section just made at a node
// whose gate runs on words against the limiter's own definition over the
// ChannelView. The section's event buffer names them all — a claim for each
// admission, its record still in its slot, a throttle for each denial, its
// record still the queue's front — and nothing a limiter reads changes inside
// the section. A denial's throttle record names the rules that failed, which
// ClassifyRules must confirm.
func (d *scalarDriver) gateBoth(sh *parShard) {
	e := d.e
	for i := range sh.events {
		ev := &sh.events[i]
		nd := &e.nodes[ev.node]
		if !nd.gated || nd.rogue {
			continue
		}
		var dst topology.NodeID
		switch ev.kind {
		case evClaim:
			dst = ev.rec.dst
		case evThrottle:
			dst = e.front(nd).dst
		default:
			continue
		}
		admitted := ev.kind == evClaim
		if want := nd.limiter.Allow(nd.view, dst); admitted != want {
			d.t.Fatalf("%s cycle %d node %d -> %d: the word gate admitted=%v on free=%#x, %s.Allow says %v",
				d.label, e.now, nd.id, dst, admitted, nd.free, nd.limiter.Name(), want)
		}
		d.gated++
		if admitted {
			continue
		}
		d.denied++
		a, b := ev.fails&failA == 0, ev.fails&failB == 0
		if wa, wb := nd.rules.ClassifyRules(nd.view, dst); a != wa || b != wb {
			d.t.Fatalf("%s cycle %d node %d -> %d: the word gate attributes (a=%v b=%v) on free=%#x, ClassifyRules says (a=%v b=%v)",
				d.label, e.now, nd.id, dst, a, b, nd.free, wa, wb)
		}
	}
}

// allocRange is the old allocation walk, port by port from the rotating
// start, which the packed header word of the new allocRange has to reproduce.
func (d *scalarDriver) allocRange() {
	e := d.e
	nVC := e.numPhys * e.cfg.VCs
	start := int(e.now % int64(nVC))
	ps := start / e.cfg.VCs
	vcsMask := uint32(1)<<uint(e.cfg.VCs) - 1
	hiMask := vcsMask &^ (uint32(1)<<uint(start%e.cfg.VCs) - 1)
	for i := range e.nodes {
		nd := &e.nodes[i]
		occupied := e.empty[i] != e.inMask
		if !occupied && nd.busyInj == 0 {
			continue
		}
		var w allocWords
		if occupied {
			d.allocWalk(nd, ps, hiMask, &w)
			for p := ps + 1; p < e.numPhys; p++ {
				d.allocWalk(nd, p, vcsMask, &w)
			}
			for p := 0; p < ps; p++ {
				d.allocWalk(nd, p, vcsMask, &w)
			}
			d.allocWalk(nd, ps, vcsMask&^hiMask, &w)
		}
		if nd.busyInj > 0 {
			inj := e.injOf(nd.id)
			for c := range inj {
				ic := &inj[c]
				if ic.msg == nil || ic.route.valid || ic.left < ic.len {
					continue
				}
				route, ok, _, unroutable := d.both(nd, fmt.Sprintf("inj %d", c), ic.msg, &ic.set, &w)
				switch {
				case ok:
					ic.route = route
					if !route.eject {
						ic.msg.Tail = e.landing(nd.id, route.outPort, route.outVC)
					}
					e.setWant(nd, e.injIndex(c), route)
					nd.freshInj |= 1 << uint(c)
				case unroutable:
					e.kill(ic.msg, nd.id)
					w.packed = false
				}
			}
		}
	}
}

func (d *scalarDriver) allocWalk(nd *node, p int, mask uint32, aw *allocWords) {
	e := d.e
	w := ^e.field(e.empty[nd.id], p) &^ e.field(nd.routed, p) & mask
	base := p * e.cfg.VCs
	for w != 0 {
		v := bits.TrailingZeros32(w)
		w &= w - 1
		d.allocateVC(nd, base+v, aw)
	}
}

// allocateVC is Engine.allocateVC around both allocators.
func (d *scalarDriver) allocateVC(nd *node, a int, w *allocWords) {
	e := d.e
	ivc := &e.inOf(nd.id)[a]
	if ivc.buf.Empty() {
		return
	}
	m := ivc.buf.FrontMessage()
	route, ok, vital, unroutable := d.both(nd, fmt.Sprintf("agent %d", a), m, &ivc.buf.Note, w)
	if ok {
		e.routesOf(nd.id)[a] = route
		nd.routed |= 1 << uint(a)
		nd.fresh |= 1 << uint(a)
		e.setWant(nd, a, route)
		nd.blocked.Progress(a)
		return
	}
	if unroutable {
		e.kill(m, nd.id)
		w.packed = false
		return
	}
	if m.Dst == nd.id || vital {
		nd.blocked.Progress(a)
		return
	}
	if e.det.Deadlocked(nd.blocked.Blocked(a), false) {
		nd.blocked.Progress(a)
		e.recover(m, nd)
		w.packed = false
	}
}

func (d *scalarDriver) both(nd *node, who string, m *message.Message, set *uint16, w *allocWords) (routeInfo, bool, bool, bool) {
	e := d.e
	dst := m.Dst
	sr, sok, svital, sun := e.scalarAllocate(nd, dst)
	r, ok, vital, un := e.allocate(nd, m, set, w)
	if r != sr || ok != sok || vital != svital || un != sun {
		d.t.Fatalf("%s cycle %d node %d %s -> %d: words say (%+v ok=%v vital=%v unroutable=%v), scalar says (%+v ok=%v vital=%v unroutable=%v)",
			d.label, e.now, nd.id, who, dst, r, ok, vital, un, sr, sok, svital, sun)
	}
	d.headers++
	if !ok {
		d.refused++
	}
	return r, ok, vital, un
}

// switchBoth plans the cycle's moves twice from the same state and leaves the
// word allocator's plan and pointers in place.
func (d *scalarDriver) switchBoth(sh *parShard) {
	e := d.e
	type saved struct {
		fresh    uint64
		freshInj uint64
		next     []int
	}
	before := make([]saved, len(e.nodes))
	for i := range e.nodes {
		nd := &e.nodes[i]
		before[i] = saved{fresh: nd.fresh, freshInj: nd.freshInj, next: arbPointers(e, nd)}
	}
	d.scalar = e.scalarSwitchRange(0, len(e.nodes), d.reqsFlat, d.scalar[:0])
	after := make([][]int, len(e.nodes))
	for i := range e.nodes {
		nd := &e.nodes[i]
		after[i] = arbPointers(e, nd)
		nd.fresh, nd.freshInj = before[i].fresh, before[i].freshInj
		for o, nx := range before[i].next {
			e.arbOf(nd.id)[o].SetNext(nx)
		}
	}
	sh.moves = e.switchRange(0, len(e.nodes), sh.moves[:0])
	if !slices.Equal(sh.moves, d.scalar) {
		d.t.Fatalf("%s cycle %d: word allocator plans %d moves, scalar %d, or in another order:\n%v\n%v",
			d.label, e.now, len(sh.moves), len(d.scalar), sh.moves, d.scalar)
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		if got := arbPointers(e, nd); !slices.Equal(got, after[i]) {
			d.t.Fatalf("%s cycle %d node %d: arbiter pointers %v, scalar leaves %v", d.label, e.now, i, got, after[i])
		}
		if nd.fresh != 0 || nd.freshInj != 0 {
			d.t.Fatalf("%s cycle %d node %d: fresh words survive the switch phase", d.label, e.now, i)
		}
	}
}

func arbPointers(e *Engine, nd *node) []int {
	arb := e.arbOf(nd.id)
	next := make([]int, len(arb))
	for o := range arb {
		next[o] = arb[o].Next()
	}
	return next
}

// planOf concatenates an engine's move plans of the cycle it just ran, in
// shard order — node order, whatever the partition.
func planOf(e *Engine) []move {
	var all []move
	for i := range e.par.shards {
		all = append(all, e.par.shards[i].moves...)
	}
	return all
}

// TestWordAllocatorsMatchScalar runs every scenario twice in lockstep: an
// engine under Step at the given worker count, and a one-shard engine under
// scalarDriver. Every cycle both must plan the same moves in the same order
// and leave the same arbiter pointers, and every injection-gate decision of an
// ALO-family node must be the limiter's own (gateBoth); every 64 cycles, and at the end, their
// canonical snapshots must be byte-equal and the invariants hold (which
// include want/wantOut and the cached set ids against the routes and the
// table).
func TestWordAllocatorsMatchScalar(t *testing.T) {
	type scenario struct {
		name   string
		cfg    Config
		cycles int
	}
	var grid []scenario
	limiters := baseline.Factories()
	ablations := []string{"alo-rule-a", "alo-rule-b", "alo-all-channels"}
	for _, name := range ablations {
		f, err := baseline.LimiterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		limiters[name] = f
	}
	for _, routing := range []string{"tfar", "dor", "duato"} {
		for vcs := 1; vcs <= 4; vcs++ {
			if (routing == "dor" && vcs < 2) || (routing == "duato" && vcs < 3) {
				continue
			}
			for _, lim := range append([]string{"none", "alo", "lf", "dril"}, ablations...) {
				for _, rate := range []float64{0.2, 0.65, 0.9} {
					cfg := QuickConfig()
					cfg.Routing, cfg.VCs, cfg.Rate = routing, vcs, rate
					cfg.Limiter, cfg.LimiterName = limiters[lim], lim
					if cfg.Limiter == nil {
						t.Fatalf("no limiter %q", lim)
					}
					cfg.DetectionThreshold = 8 // recoveries inside the horizon
					grid = append(grid, scenario{fmt.Sprintf("%s/vc%d/%s/%.2f", routing, vcs, lim, rate), cfg, 500})
				}
			}
		}
	}
	eq := equivalenceConfigs()
	grid = append(grid,
		scenario{"rogue-storm", eq["adversarial"], 4500},
		scenario{"fault-storm", eq["faults-storm"], 6000},
		scenario{"fault-flap", eq["faults-flap"], 4000})
	wide := QuickConfig() // three dimensions, the injection channels on the word's top bits
	wide.K, wide.N, wide.VCs, wide.Rate = 3, 3, 10, 1.5
	wide.Limiter, wide.LimiterName = limiters["none"], "none"
	grid = append(grid, scenario{"64-inputs", wide, 400})

	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			headers, refused, gated, denied := 0, 0, 0, 0
			var recovered, aborted int64
			for _, sc := range grid {
				if testing.Short() {
					sc.cycles /= 3
				}
				cfg := sc.cfg
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, int64(sc.cycles), 0
				ref, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				cfg.Workers = workers
				eng, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
				ref.SetListener(noTrace{})
				d := &scalarDriver{t: t, e: ref, label: sc.name,
					reqsFlat: make([]int32, (ref.numPhys+cfg.EjChannels)*ref.agentCount())}
				for c := 1; c <= sc.cycles; c++ {
					d.step()
					eng.Step()
					if got, want := planOf(eng), ref.par.shards[0].moves; !slices.Equal(got, want) {
						t.Fatalf("%s cycle %d: engine plans %d moves, the driven one %d, or in another order", sc.name, c, len(got), len(want))
					}
					if c%64 == 0 || c == sc.cycles {
						sameState(t, fmt.Sprintf("%s cycle %d", sc.name, c), eng, ref)
					}
				}
				eng.Close()
				headers, refused = headers+d.headers, refused+d.refused
				gated, denied = gated+d.gated, denied+d.denied
				recovered, aborted = recovered+ref.Recovered(), aborted+ref.Aborted()
			}
			if refused == 0 || refused == headers || denied == 0 || denied == gated || recovered == 0 || aborted == 0 {
				t.Fatalf("vacuous: %d header decisions compared, %d refused, %d gate decisions, %d denied, %d recoveries and %d fault kills inside the walks",
					headers, refused, gated, denied, recovered, aborted)
			}
			t.Logf("%d scenarios, %d header decisions (%d refused), %d gate decisions (%d denied), %d recoveries, %d fault kills",
				len(grid), headers, refused, gated, denied, recovered, aborted)
		})
	}
}

// sameState requires two engines of one run to hold byte-equal canonical
// snapshots (arbiter pointers, blockage counters, routes, counters included)
// and clean invariants.
func sameState(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	var canon [2][]byte
	for i, e := range []*Engine{a, b} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if canon[i], err = s.CanonicalBytes(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("%s: the engine under Step and the driven one diverged", label)
	}
}
