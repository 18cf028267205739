package sim

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"wormnet/internal/routing"
	"wormnet/internal/topology"
)

// portCand is a routing candidate set restricted to one physical port: the
// admissible virtual channels as a bitmask (bit v = VC v admissible). The
// allocator works on this form so that checking a whole port's candidates
// against the free/empty status registers is a handful of mask operations
// rather than a per-VC pointer chase. Within a port the routing algorithms
// emit candidates in ascending VC order, so "first admissible VC" is the
// lowest set bit.
type portCand struct {
	port topology.Port
	mask uint32
}

// packCands converts an ordered candidate list (same-port candidates
// contiguous, as Algorithm.Candidates guarantees) into per-port masks,
// appending to out.
func packCands(cands []routing.Candidate, out []portCand) []portCand {
	for i := 0; i < len(cands); {
		p := cands[i].Port
		var mask uint32
		for ; i < len(cands) && cands[i].Port == p; i++ {
			mask |= 1 << uint(cands[i].VC)
		}
		out = append(out, portCand{port: p, mask: mask})
	}
	return out
}

// candTable is the packed routing candidate table. Between liveness changes
// every routing algorithm in the simulator is a pure function of (current,
// destination), and all three read nothing of the two addresses but, per
// dimension, the offset (b-a) mod k and whether a > b (MinimalDirs and
// wrapAhead). So the table is keyed by that offset class: per dimension the
// signed difference b-a, which determines both, shifted into [1, 2k) and
// taken as a base-2k digit. With spread[x] the node's coordinates read as
// base-2k digits, the class of (cur, dst) is spread[dst] - spread[cur] + base:
// one subtraction and a (2k)^n-entry table, 4 096 ids (16 kB) on the 8-ary
// 3-cube.
//
// Candidate sets repeat heavily (on that network 64 distinct sets under TFAR,
// 13 under DOR, 127 under Duato, the self set included), so the table stores
// each distinct set once, in a pool small enough to stay cache-resident, and
// the class entry is the set's id. An input virtual channel still looks its header's id up once and
// caches it (its buffer's Note): a retry costs the set's word alone.
//
// Under faults, every algorithm's set is its healthy set restricted to cur's
// live output ports (the routing.Algorithm contract), so an engine with
// something down keeps the shape's classes and adds an overlay (see overlay):
// remap sends a healthy id to the id of its set without the dead ports, in one
// block per distinct dead-port set, and remapAt names each node's block. Both
// are nil on a shape's table.
type candTable struct {
	spread []int32 // per node: its coordinates as base-2k digits
	base   int32   // the class offset: k in every base-2k digit
	class  []int32 // per offset class: healthy set id, never 0 for a class a pair has (0 = "not looked up" in the caches)
	// self is the id of the class of cur == dst: an empty set of its own,
	// which no set a fault filters empty shares, so that the id alone tells
	// an ejection-bound header (allocate) without its message.
	self   int32
	setOff []int32 // per set id: [setOff[id], setOff[id+1]) in pool
	pool   []portCand
	// word[id] is set id's candidates as one word, bit port*VCs+vc: what a
	// blocked header is tested against (allocate). Zero for the empty set.
	// useful[id] has bit port*VCs for each physical port of the set: the
	// routing output the injection gate tests the free word against
	// (core.RuleWords).
	word   []uint64
	useful []uint64
	// port[i] is pool[i].port: each set's physical ports as the slice the
	// injection limiters' channel view hands out.
	port []topology.Port
	// seen maps a set's packed bytes (intern's key) to its id.
	seen map[string]int32

	remapAt []int32 // per node: its block in remap (0, the identity, with no dead port)
	remap   []int32 // blocks of len(healthy ids): healthy id -> filtered id
}

// buildCandTable evaluates the routing function once per offset class, at a
// representative pair of that class, under alg's current liveness mask, which
// must be all-alive. Set ids are handed out in first-seen order, so two builds
// of the same function number their sets alike.
func buildCandTable(topo *topology.Torus, alg routing.Algorithm, vcs int) *candTable {
	k, n := topo.K(), topo.N()
	t := &candTable{
		spread: make([]int32, topo.Nodes()),
		setOff: []int32{0, 0}, // id 0 is reserved and empty
		word:   []uint64{0},
		useful: []uint64{0},
		seen:   make(map[string]int32),
	}
	classes := int32(1)
	for d := 0; d < n; d++ {
		t.base += int32(k) * classes
		for x := range t.spread {
			t.spread[x] += int32(topo.Coord(topology.NodeID(x), d)) * classes
		}
		classes *= int32(2 * k)
	}
	t.class = make([]int32, classes)
	cur, dst := make([]int, n), make([]int, n)
	var scratch []routing.Candidate
	var packed []portCand
next:
	for c := range t.class {
		if c == int(t.base) { // cur == dst
			t.self = t.add(nil, vcs)
			t.class[c] = t.self
			continue
		}
		// Digit d of c is the offset b-a+k of dimension d; digit 0 (b-a = -k)
		// is no pair's, so its classes keep id 0. The representative pair
		// puts the smaller coordinate of each dimension at 0.
		for d, rest := 0, c; d < n; d, rest = d+1, rest/(2*k) {
			diff := rest%(2*k) - k
			if diff == -k {
				continue next
			}
			cur[d], dst[d] = max(0, -diff), max(0, diff)
		}
		scratch = alg.Candidates(topo.FromCoords(cur), topo.FromCoords(dst), scratch[:0])
		packed = packCands(scratch, packed[:0])
		t.class[c] = t.intern(packed, vcs)
	}
	return t
}

// intern returns the id of the set packed, adding it to the pool (and its word,
// useful word and ports beside it) if no set has those ports and masks yet.
func (t *candTable) intern(packed []portCand, vcs int) int32 {
	var buf [5 * 64]byte // a set has at most one entry a port, and a router fewer than 64 ports
	key := buf[:0]
	for _, pc := range packed {
		key = append(key, byte(pc.port),
			byte(pc.mask), byte(pc.mask>>8), byte(pc.mask>>16), byte(pc.mask>>24))
	}
	if id, ok := t.seen[string(key)]; ok {
		return id
	}
	id := t.add(packed, vcs)
	t.seen[string(key)] = id
	return id
}

// add appends set packed under a new id (intern files it by key; the self set
// is filed nowhere).
func (t *candTable) add(packed []portCand, vcs int) int32 {
	id := int32(len(t.word))
	t.pool = append(t.pool, packed...)
	for _, pc := range packed {
		t.port = append(t.port, pc.port)
	}
	w, u := setWords(packed, vcs)
	t.word = append(t.word, w)
	t.useful = append(t.useful, u)
	t.setOff = append(t.setOff, int32(len(t.pool)))
	return id
}

// setWords returns a set's word (bit port*vcs+vc per candidate) and useful
// word (bit port*vcs per port).
func setWords(set []portCand, vcs int) (word, useful uint64) {
	for _, pc := range set {
		word |= uint64(pc.mask) << uint(int(pc.port)*vcs)
		useful |= 1 << uint(int(pc.port)*vcs)
	}
	return word, useful
}

// overlay makes t, an engine's own table, the shape table sh under live. The
// classes are sh's, read in place; sh's sets are copied into t's storage, so
// appending filtered sets never writes sh's. Each distinct set of dead output
// ports (as bits port*VCs, the useful word's form) gets one remap block, built
// from the healthy sets alone: routing is not evaluated, and nodes with every
// port alive share the identity block 0.
func (t *candTable) overlay(sh *candTable, topo *topology.Torus, live *topology.Liveness, vcs int) {
	t.spread, t.base, t.class, t.self = sh.spread, sh.base, sh.class, sh.self
	t.setOff = append(t.setOff[:0], sh.setOff...)
	t.pool = append(t.pool[:0], sh.pool...)
	t.word = append(t.word[:0], sh.word...)
	t.useful = append(t.useful[:0], sh.useful...)
	t.port = append(t.port[:0], sh.port...)
	if t.seen == nil {
		t.seen = make(map[string]int32, len(sh.seen))
	}
	clear(t.seen)
	maps.Copy(t.seen, sh.seen)

	healthy := int32(len(sh.word))
	t.remap = t.remap[:0]
	for h := range healthy {
		t.remap = append(t.remap, h)
	}
	t.remapAt = slices.Grow(t.remapAt[:0], topo.Nodes())[:topo.Nodes()]
	blocks := map[uint64]int32{0: 0}
	for x := range t.remapAt {
		var dead uint64
		for p := 0; p < topo.NumPorts(); p++ {
			if !live.LinkAlive(topology.NodeID(x), topology.Port(p)) {
				dead |= 1 << uint(p*vcs)
			}
		}
		at, ok := blocks[dead]
		if !ok {
			at = int32(len(t.remap))
			blocks[dead] = at
			for h := range healthy {
				t.remap = append(t.remap, t.filtered(h, dead, vcs))
			}
		}
		t.remapAt[x] = at
	}
}

// filtered returns the id of healthy set h without the ports in dead.
func (t *candTable) filtered(h int32, dead uint64, vcs int) int32 {
	if t.useful[h]&dead == 0 {
		return h
	}
	var packed []portCand
	for _, pc := range t.set(h) {
		if dead>>uint(int(pc.port)*vcs)&1 == 0 {
			packed = append(packed, pc)
		}
	}
	return t.intern(packed, vcs)
}

// maxSetID is the largest set id the 16-bit caches hold (0 is "not looked
// up", so the ids 1 to maxSetID).
const maxSetID = 1<<16 - 1

// idBound returns one more than the largest set id the table can hand out:
// its own ids and, on an engine with faults over nodes routers, an id for
// every set an overlay may intern — each healthy set without some of its
// ports, at most one variant a node (a node has one set of dead ports), and
// the empty set. The count saturates past maxSetID.
func (t *candTable) idBound(faults bool, nodes int) int {
	n := len(t.word)
	if !faults {
		return n
	}
	n++ // the empty set
	for _, u := range t.useful[1:] {
		if p := bits.OnesCount64(u); p > 1 {
			variants := nodes
			if p <= 16 {
				variants = min(variants, 1<<p-2) // its ports' proper non-empty subsets
			}
			n += variants
		}
		if n > maxSetID {
			break
		}
	}
	return n
}

// id returns the set id of a header at cur addressed to dst.
func (t *candTable) id(cur, dst topology.NodeID) int32 {
	id := t.class[t.spread[dst]-t.spread[cur]+t.base]
	if t.remapAt != nil {
		id = t.remap[t.remapAt[cur]+id]
	}
	return id
}

// set returns candidate set id.
func (t *candTable) set(id int32) []portCand {
	return t.pool[t.setOff[id]:t.setOff[id+1]:t.setOff[id+1]]
}

// get returns the candidate set of a header at cur addressed to dst.
func (t *candTable) get(cur, dst topology.NodeID) []portCand { return t.set(t.id(cur, dst)) }

// ports returns the physical ports of that candidate set, one each.
func (t *candTable) ports(cur, dst topology.NodeID) []topology.Port {
	id := t.id(cur, dst)
	return t.port[t.setOff[id]:t.setOff[id+1]:t.setOff[id+1]]
}

// shapeKey is everything a network's immutable half depends on.
type shapeKey struct {
	k, n, vcs int
	routing   string
}

// shape is what every engine of one network has in common and none of them
// writes: the torus and the candidate table of the network with nothing down.
// An engine at routing epoch 0, or healed back to all-alive, reads cand in
// place; a liveness change points the engine at an overlay of its own over
// this table (retable), so nothing ever writes this one.
type shape struct {
	key   shapeKey
	build sync.Once
	topo  *topology.Torus
	cand  *candTable
}

// maxShapes bounds the process-wide shape cache: a figure, a sweep or a test
// battery works on one or two networks at a time, and the oldest entry beyond
// the bound is dropped (engines still using it keep it alive).
const maxShapes = 8

var shapes struct {
	sync.Mutex
	list []*shape // oldest first
}

// newAlgorithm returns a fresh instance of a routing function validate admits.
func newAlgorithm(name string, topo *topology.Torus, vcs int) routing.Algorithm {
	switch name {
	case "tfar":
		return routing.NewTFAR(topo, vcs)
	case "dor":
		return routing.NewDOR(topo, vcs)
	case "duato":
		return routing.NewDuato(topo, vcs)
	}
	panic(fmt.Sprintf("sim: unknown routing %q", name))
}

// shapeOf returns the shape of a validated configuration's network, built on
// first use from the key alone, by a routing instance of its own that never
// sees a liveness mask. Concurrent callers of one new key get one shape, built
// once; the lock is not held while it builds.
func shapeOf(cfg *Config) *shape {
	key := shapeKey{cfg.K, cfg.N, cfg.VCs, cfg.Routing}
	shapes.Lock()
	var s *shape
	for _, c := range shapes.list {
		if c.key == key {
			s = c
		}
	}
	if s == nil {
		if len(shapes.list) == maxShapes {
			shapes.list = append(shapes.list[:0], shapes.list[1:]...)
		}
		s = &shape{key: key}
		shapes.list = append(shapes.list, s)
	}
	shapes.Unlock()
	s.build.Do(func() {
		s.topo = topology.New(key.k, key.n)
		s.cand = buildCandTable(s.topo, newAlgorithm(key.routing, s.topo, key.vcs), key.vcs)
	})
	return s
}

// retable makes e.cand the table of a fault-capable engine's current liveness
// mask: the shape's when nothing is down, else the engine's own overlay of it,
// rebuilt in place without calling the routing function. Callers zero the
// set-id caches.
func (e *Engine) retable() {
	if e.live.AllAlive() {
		e.cand = e.shape.cand
		return
	}
	if e.faultCand == nil {
		e.faultCand = new(candTable)
	}
	e.faultCand.overlay(e.shape.cand, e.topo, e.live, e.cfg.VCs)
	e.cand = e.faultCand
}
