package sim

import (
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
// On fault-free runs every routing algorithm in the simulator is a pure
// function of (current, destination), so the candidate sets can be computed
// once at construction and the per-header routing call becomes a slice
// lookup.
//
// Candidate sets repeat heavily: they depend on the per-dimension offsets
// (and, for dateline schemes, which wraparounds remain), not on the quarter
// of a million (current, destination) pairs individually, so a 512-node
// torus has a few hundred distinct sets at most. The table therefore stores
// each distinct set once in a pool small enough to stay cache-resident and
// keeps only a per-pair set id — without the dedup, allocation-heavy runs
// spend much of their time missing on megabytes of repeated portCand data.
type candTable struct {
	n      int
	setID  []int32    // per (cur*n+dst): index into setOff
	setOff []int32    // per set id: [setOff[id], setOff[id+1]) in pool
	pool   []portCand // deduplicated candidate sets, back to back
	// port[i] is pool[i].port: each set's physical ports as the slice the
	// injection limiters' channel view hands out.
	port []topology.Port
}

// buildCandTable evaluates alg for every (current, destination) pair of an
// n-node network, deduplicating identical candidate sets.
func buildCandTable(alg routing.Algorithm, n int) *candTable {
	t := &candTable{
		n:      n,
		setID:  make([]int32, n*n),
		setOff: []int32{0},
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
				id = int32(len(t.setOff) - 1)
				seen[string(key)] = id
				t.pool = append(t.pool, packed...)
				for _, pc := range packed {
					t.port = append(t.port, pc.port)
				}
				t.setOff = append(t.setOff, int32(len(t.pool)))
			}
			t.setID[cur*n+dst] = id
		}
	}
	return t
}

// get returns the candidate set of a header at cur addressed to dst.
func (t *candTable) get(cur, dst topology.NodeID) []portCand {
	id := t.setID[int(cur)*t.n+int(dst)]
	return t.pool[t.setOff[id]:t.setOff[id+1]:t.setOff[id+1]]
}

// ports returns the physical ports of that candidate set, one each.
func (t *candTable) ports(cur, dst topology.NodeID) []topology.Port {
	id := t.setID[int(cur)*t.n+int(dst)]
	return t.port[t.setOff[id]:t.setOff[id+1]:t.setOff[id+1]]
}
