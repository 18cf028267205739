package sim

import (
	"fmt"
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

// candTable is the packed per-(node, destination) routing candidate table.
// Between liveness changes every routing algorithm in the simulator is a pure
// function of (current, destination), so the candidate sets are computed once
// per routing epoch and the per-header routing call becomes a lookup.
//
// Candidate sets repeat heavily: they depend on the per-dimension offsets
// (and, for dateline schemes, which wraparounds remain), not on the quarter
// of a million (current, destination) pairs individually, so a 512-node
// torus has a few hundred distinct sets at most. The table therefore stores
// each distinct set once, in a pool small enough to stay cache-resident, and
// keeps only a per-pair set id. That id array is the one big thing here (1 MB
// at 512 nodes, so a lookup in it is a cache miss): an input virtual channel
// looks its header's id up once and caches it (inVC.set), and a retry costs
// the set's word alone.
type candTable struct {
	n      int
	setID  []int32    // per (cur*n+dst): set id, never 0 (0 = "not looked up" in the caches)
	setOff []int32    // per set id: [setOff[id], setOff[id+1]) in pool
	pool   []portCand // deduplicated candidate sets, back to back
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
}

// buildCandTable evaluates the routing function for every (current,
// destination) pair under alg's current liveness mask, deduplicating identical
// candidate sets. Set ids are handed out in first-seen order, so two builds of
// the same function number their sets alike.
func buildCandTable(topo *topology.Torus, alg routing.Algorithm, vcs int) *candTable {
	n := topo.Nodes()
	t := &candTable{
		n:      n,
		setID:  make([]int32, n*n),
		setOff: []int32{0, 0}, // id 0 is reserved and empty
		word:   []uint64{0},
		useful: []uint64{0},
	}
	seen := make(map[string]int32)
	var scratch []routing.Candidate
	var packed []portCand
	var key []byte
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			packed = packed[:0]
			if cur != dst {
				scratch = alg.Candidates(topology.NodeID(cur), topology.NodeID(dst), scratch[:0])
				packed = packCands(scratch, packed)
			}
			key = key[:0]
			for _, pc := range packed {
				key = append(key, byte(pc.port),
					byte(pc.mask), byte(pc.mask>>8), byte(pc.mask>>16), byte(pc.mask>>24))
			}
			id, ok := seen[string(key)]
			if !ok {
				id = int32(len(t.word))
				seen[string(key)] = id
				t.pool = append(t.pool, packed...)
				var w, u uint64
				for _, pc := range packed {
					t.port = append(t.port, pc.port)
					w |= uint64(pc.mask) << uint(int(pc.port)*vcs)
					u |= 1 << uint(int(pc.port)*vcs)
				}
				t.word = append(t.word, w)
				t.useful = append(t.useful, u)
				t.setOff = append(t.setOff, int32(len(t.pool)))
			}
			t.setID[cur*n+dst] = id
		}
	}
	return t
}

// id returns the set id of a header at cur addressed to dst.
func (t *candTable) id(cur, dst topology.NodeID) int32 { return t.setID[int(cur)*t.n+int(dst)] }

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
// place; a liveness change makes the engine build a table of its own (retable),
// so nothing ever writes this one.
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
// mask: the shape's when nothing is down, else one built now. Callers zero the
// set-id caches.
func (e *Engine) retable() {
	if e.live.AllAlive() {
		e.cand = e.shape.cand
		return
	}
	e.cand = buildCandTable(e.topo, e.alg, e.cfg.VCs)
}
