// Package routing implements the routing engines of the simulator.
//
// The paper evaluates True Fully Adaptive Routing (TFAR): a message may use
// any virtual channel of any physical channel that brings it minimally
// closer to its destination. TFAR imposes no cyclic-dependency restriction,
// so deadlock is possible and is handled by detection + recovery
// (internal/deadlock). A deterministic dimension-order (DOR) engine with the
// classic dateline virtual-channel restriction is provided as a
// deadlock-free baseline.
package routing

import (
	"wormnet/internal/topology"
)

// Candidate is one output virtual channel a head flit may be allocated to.
type Candidate struct {
	Port topology.Port
	VC   int8
}

// Algorithm computes, for a header at node cur addressed to dst, the set of
// output virtual channels it may use. Implementations hold no per-message
// state; after construction (and optional SetLiveness wiring) they are safe
// for concurrent use.
//
// Reconfiguration contract: Candidates must be a pure, deterministic
// function of (cur, dst, current liveness mask) — no hidden per-call state,
// no dependence on call order or history — and the simulation engine relies
// on two more facts about it, which every algorithm here keeps
// (TestCandidatesFollowOffsetClass):
//
//   - Offset classes. The healthy set depends on the two addresses only
//     through, per dimension, the offset (dst-cur) mod k and whether cur's
//     coordinate exceeds dst's (what MinimalDirs and wrapAhead read). The
//     engine evaluates Candidates once per such class, not per pair.
//   - Faults filter. Under any liveness mask, the set is the healthy set
//     restricted to cur's live output ports (LinkAlive(cur, p)), in the same
//     order. At a routing-epoch flip the engine derives every set from the
//     healthy ones this way, without calling Candidates, so a repaired
//     component restores exactly the sets it had before failing.
//
// Breaking either silently breaks the epoch invariants and the engine's
// table (sim's CheckReconfiguration compares the two pair by pair).
type Algorithm interface {
	// Candidates appends the admissible output virtual channels to out and
	// returns the extended slice. The result is empty iff cur == dst.
	// Candidates of the same physical port are contiguous in the result.
	Candidates(cur, dst topology.NodeID, out []Candidate) []Candidate
	// Name returns a short identifier, e.g. "tfar".
	Name() string
	// DeadlockFree reports whether the algorithm guarantees the absence of
	// routing-induced deadlock (and thus needs no recovery mechanism).
	DeadlockFree() bool
}

// FaultAware is implemented by algorithms that can filter dead channels out
// of their candidate sets. The simulation engine wires its liveness mask in
// before the run when fault injection is active; a nil mask (the default)
// means every channel is alive and the candidate set is the fault-free one.
//
// With a mask attached, Candidates never yields a channel leaving through a
// dead link or toward/out of a dead router — so injection limiters that run
// the routing function (ALO) automatically see the reduced capacity, and
// the candidate set may become empty even when cur != dst (the message is
// currently unroutable; the engine's source-retry machinery handles it).
type FaultAware interface {
	SetLiveness(l *topology.Liveness)
}

// All three engines in this package are fault-aware.
var (
	_ FaultAware = (*TFAR)(nil)
	_ FaultAware = (*DOR)(nil)
	_ FaultAware = (*Duato)(nil)
)

// TFAR is True Fully Adaptive Routing: every virtual channel of every
// minimal physical channel is admissible.
type TFAR struct {
	t    *topology.Torus
	vcs  int
	live *topology.Liveness
}

// NewTFAR returns a TFAR engine for torus t with vcs virtual channels per
// physical channel.
func NewTFAR(t *topology.Torus, vcs int) *TFAR {
	if vcs < 1 {
		panic("routing: need at least one virtual channel")
	}
	return &TFAR{t: t, vcs: vcs}
}

// Candidates implements Algorithm.
func (r *TFAR) Candidates(cur, dst topology.NodeID, out []Candidate) []Candidate {
	if cur == dst {
		return out
	}
	for dim := 0; dim < r.t.N(); dim++ {
		a, b := r.t.Coord(cur, dim), r.t.Coord(dst, dim)
		plus, minus := r.t.MinimalDirs(a, b)
		if plus && alive(r.live, cur, topology.PortFor(dim, topology.Plus)) {
			out = appendPort(out, topology.PortFor(dim, topology.Plus), r.vcs)
		}
		if minus && alive(r.live, cur, topology.PortFor(dim, topology.Minus)) {
			out = appendPort(out, topology.PortFor(dim, topology.Minus), r.vcs)
		}
	}
	return out
}

// SetLiveness implements FaultAware.
func (r *TFAR) SetLiveness(l *topology.Liveness) { r.live = l }

// alive reports whether the channel (cur, p) is usable under mask l; a nil
// mask means yes.
func alive(l *topology.Liveness, cur topology.NodeID, p topology.Port) bool {
	return l == nil || l.LinkAlive(cur, p)
}

func appendPort(out []Candidate, p topology.Port, vcs int) []Candidate {
	for v := 0; v < vcs; v++ {
		out = append(out, Candidate{Port: p, VC: int8(v)})
	}
	return out
}

// Name implements Algorithm.
func (r *TFAR) Name() string { return "tfar" }

// DeadlockFree implements Algorithm. TFAR allows cyclic channel
// dependencies, so it is not deadlock-free.
func (r *TFAR) DeadlockFree() bool { return false }

// DOR is deterministic dimension-order routing with the dateline
// virtual-channel restriction: dimensions are resolved lowest-first; within
// a ring, virtual channel 0 is used while the wraparound link still lies
// ahead and virtual channel 1 afterwards, which breaks the ring's cyclic
// dependency. DOR needs at least 2 virtual channels per physical channel on
// rings with k > 2 to be deadlock-free; extra virtual channels are unused.
type DOR struct {
	t    *topology.Torus
	vcs  int
	live *topology.Liveness
}

// NewDOR returns a dimension-order engine for torus t. vcs is the number of
// virtual channels per physical channel; it panics if vcs < 2 and k > 2,
// since the dateline scheme then cannot be applied.
func NewDOR(t *topology.Torus, vcs int) *DOR {
	if vcs < 2 && t.K() > 2 {
		panic("routing: DOR with dateline needs >= 2 virtual channels")
	}
	if vcs < 1 {
		panic("routing: need at least one virtual channel")
	}
	return &DOR{t: t, vcs: vcs}
}

// Candidates implements Algorithm. It returns at most one candidate.
func (r *DOR) Candidates(cur, dst topology.NodeID, out []Candidate) []Candidate {
	if cur == dst {
		return out
	}
	for dim := 0; dim < r.t.N(); dim++ {
		a, b := r.t.Coord(cur, dim), r.t.Coord(dst, dim)
		if a == b {
			continue
		}
		plus, _ := r.t.MinimalDirs(a, b)
		// Ties (even k, half-way offset) resolve to Plus deterministically.
		dir := topology.Minus
		if plus {
			dir = topology.Plus
		}
		vc := int8(1) // past (or never needing) the wraparound link
		if wrapAhead(a, b, dir) {
			vc = 0
		}
		// A dead prescribed channel leaves DOR with no candidate at all:
		// deterministic routing cannot route around a fault, so the header
		// waits (and the engine's retry machinery eventually reacts).
		if !alive(r.live, cur, topology.PortFor(dim, dir)) {
			return out
		}
		return append(out, Candidate{Port: topology.PortFor(dim, dir), VC: vc})
	}
	return out
}

// SetLiveness implements FaultAware.
func (r *DOR) SetLiveness(l *topology.Liveness) { r.live = l }

// wrapAhead reports whether the remaining path from coordinate a to b in
// direction dir still crosses the ring's wraparound link.
func wrapAhead(a, b int, dir topology.Direction) bool {
	if dir == topology.Plus {
		return a > b // must pass k-1 -> 0
	}
	return a < b // must pass 0 -> k-1
}

// Name implements Algorithm.
func (r *DOR) Name() string { return "dor" }

// DeadlockFree implements Algorithm.
func (r *DOR) DeadlockFree() bool { return true }

// Ports extracts the distinct physical ports appearing in candidates,
// appending to out. Candidates of the same port must be contiguous (as
// produced by the algorithms in this package).
func Ports(cands []Candidate, out []topology.Port) []topology.Port {
	for i, c := range cands {
		if i == 0 || c.Port != cands[i-1].Port {
			out = append(out, c.Port)
		}
	}
	return out
}
