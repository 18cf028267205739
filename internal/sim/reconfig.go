package sim

import (
	"fmt"
	"slices"

	"wormnet/internal/routing"
	"wormnet/internal/topology"
)

// Online fault/repair reconfiguration. Every liveness-changing fault event —
// Down and Up alike — advances the engine's routing epoch; when a cycle's
// due-event batch changed anything, the engine reconfigures in place,
// without draining the network:
//
//   - The packed candidate table follows the new mask: an engine with
//     something down reads an overlay of the shape's table that filters the
//     dead output ports out of each affected node's sets, re-derived from
//     the healthy sets without a routing call, and one healed back to
//     all-alive reads the shape's table again (retable). This is what
//     re-admits healed capacity: a repaired link's virtual channels re-enter
//     candidate sets (and thereby the limiters' useful-channel views) the
//     very cycle the repair commits, instead of staying invisible until the
//     next run.
//   - Surviving routes are revalidated to the new epoch (drain-or-reroute):
//     a route whose output channel is still alive keeps its claim and drains
//     under the new epoch — wormholes never switch channels mid-flight, so
//     draining the held channel is the only consistent continuation — while
//     routes crossing dead capacity never survive to this point (the kill
//     sweep severed their messages). Unrouted headers simply re-route
//     against the new table.
//
// The revalidation keeps the epoch-consistency invariant checkable in O(1)
// per route: every valid route's stamp equals the engine's current epoch,
// and its claimed channel is alive. No packet ever crosses a hop decision
// from a stale epoch.
//
// Determinism: reconfiguration runs where fault application runs — serially
// at the cycle boundary, before any phase (Step applies due faults before
// the schedule starts or any worker wakes) — so epoch flips, overlay rebuilds
// and revalidation sweeps are bit-identical at any worker count.

// Epoch returns the current routing epoch: the number of liveness-changing
// fault and repair events applied so far. Fault-free runs stay at epoch 0.
func (e *Engine) Epoch() uint64 { return e.epoch }

// SetReconfigHook installs f to run after every reconfiguration (epoch
// flip), with the new epoch. It runs at the cycle boundary before any phase,
// on the engine's goroutine. Tests hang transition-safety checks here — the
// epoch invariants and the wait-graph oracle at every flip; the hook must
// not mutate engine state.
func (e *Engine) SetReconfigHook(f func(epoch uint64)) { e.onReconfig = f }

// reconfigure rebuilds the routing state after a batch of liveness changes:
// the candidate table's overlay for the new mask (whose set ids every cache —
// input VCs, injection channels, queue heads — must forget), then the
// revalidation sweep stamping every surviving route to the new epoch.
func (e *Engine) reconfigure() {
	e.retable()
	for a := range e.routes {
		e.in[a].buf.Note = 0
		if e.routes[a].valid {
			e.routes[a].epoch = uint16(e.epoch)
		}
	}
	for i := range e.nodes {
		e.nodes[i].queue.set = 0
	}
	for c := range e.inj {
		e.inj[c].set = 0
		if e.inj[c].route.valid {
			e.inj[c].route.epoch = uint16(e.epoch)
		}
	}
	if e.onReconfig != nil {
		e.onReconfig(e.epoch)
	}
}

// CheckReconfiguration validates the transition-safety contract after an
// epoch flip (or at any cycle boundary):
//
//  1. Epoch consistency — every valid route is stamped with the current
//     epoch, every forward route's claimed output channel is alive, and
//     every ejection route's router is alive: no hop decision from a stale
//     epoch survives, so no packet can cross an epoch inconsistently.
//  2. Table freshness — the packed candidate table matches a direct call of
//     the routing function under the current liveness mask for every
//     (node, destination) pair: the set, its words and its ports; and the
//     self set is the id of exactly the pairs cur == dst.
//  3. Recoverability — if the wait-graph oracle finds a deadlocked set in
//     the post-flip state, deadlock detection must be armed to recover it:
//     a reconfiguration must never introduce a wait cycle the watermark
//     machinery cannot break.
//
// It is test-grade (table freshness is O(nodes²) routing calls); the cheap per-route
// epoch checks also run inside CheckInvariants on every fault-capable run.
func (e *Engine) CheckReconfiguration() error {
	if err := e.checkRouteEpochs(); err != nil {
		return err
	}
	var cands []routing.Candidate
	var want []portCand
	for n := 0; n < e.topo.Nodes(); n++ {
		for d := 0; d < e.topo.Nodes(); d++ {
			cur, dst := topology.NodeID(n), topology.NodeID(d)
			cands = e.alg.Candidates(cur, dst, cands[:0])
			want = packCands(cands, want[:0])
			if got := e.cand.get(cur, dst); !slices.Equal(got, want) {
				return fmt.Errorf("sim: stale candidate table at (%d,%d): table has %+v, routing has %+v",
					n, d, got, want)
			}
			// A header's id alone tells it is at its destination (allocate),
			// and a 16-bit cache holds it.
			id := e.cand.id(cur, dst)
			if (id == e.cand.self) != (cur == dst) || id > maxSetID {
				return fmt.Errorf("sim: candidate table at (%d,%d): set %d, the self set is %d", n, d, id, e.cand.self)
			}
			if w, u := setWords(want, e.cfg.VCs); e.cand.word[id] != w || e.cand.useful[id] != u ||
				!slices.Equal(e.cand.ports(cur, dst), routing.Ports(cands, nil)) {
				return fmt.Errorf("sim: candidate table at (%d,%d): set %d's words or ports disagree with its candidates", n, d, id)
			}
		}
	}
	if g := e.BuildWaitGraph(); g.HasDeadlock() && !e.det.Enabled() {
		return fmt.Errorf("sim: epoch %d: wait graph holds a deadlocked set of %d messages with detection disarmed — unrecoverable transition",
			e.epoch, len(g.Deadlocked()))
	}
	return nil
}

// checkRouteEpochs walks every valid route and verifies the epoch stamp and
// channel liveness: the cheap core of the epoch-consistency invariant.
func (e *Engine) checkRouteEpochs() error {
	stamp := uint16(e.epoch)
	check := func(nd *node, r routeInfo, what string, idx int) error {
		if !r.valid {
			return nil
		}
		if r.epoch != stamp {
			return fmt.Errorf("sim: node %d %s %d: route stamped epoch %d, engine at %d (mod 2^16: %d)",
				nd.id, what, idx, r.epoch, e.epoch, stamp)
		}
		if e.live != nil {
			if r.eject {
				if !e.live.RouterAlive(nd.id) {
					return fmt.Errorf("sim: node %d %s %d: ejection route at dead router", nd.id, what, idx)
				}
			} else if !e.live.LinkAlive(nd.id, r.outPort) {
				return fmt.Errorf("sim: node %d %s %d: route claims dead channel port %d", nd.id, what, idx, r.outPort)
			}
		}
		return nil
	}
	for a, r := range e.routes {
		if err := check(&e.nodes[a/e.nVC], r, "agent", a%e.nVC); err != nil {
			return err
		}
	}
	for c, ic := range e.inj {
		if err := check(&e.nodes[c/e.cfg.InjChannels], ic.route, "inj", c%e.cfg.InjChannels); err != nil {
			return err
		}
	}
	return nil
}
