package sim

import (
	"cmp"
	"slices"

	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// This file is the engine side of fault injection: applying scheduled link
// and router failures to the liveness mask at cycle boundaries, killing the
// in-flight messages whose wormhole paths die, and feeding the killed
// messages back to their sources with capped exponential backoff (or
// dropping them once the retry limit is exhausted or an endpoint is gone).
//
// Everything here runs only when the run has a fault schedule (e.live is
// non-nil); a fault-free engine never reaches this code.
//
// Kill sets are collected from router state rather than a global message
// index: a message's path starts at its Tail (message.Message.Tail) and
// follows the routes it claimed (nextLoc). A link fault reads the dead link's
// channels; a router fault takes the dead node's injection channels and
// filters the messages the network holds (Engine.held, the walk the invariant
// checker, the wait graph and the snapshot share). processKills sorts by ID
// and deduplicates the union, so the collection order never leaks into
// simulation state.

// applyDueFaults executes the scheduled fault events that have come due.
// Each state-changing event bumps the routing epoch; when the batch changed
// anything, the engine reconfigures once before the cycle's phases: the
// candidate table is rebuilt under the new mask and surviving routes are
// revalidated to the new epoch. Step runs this serially before the cycle's
// sections start, so a failure at cycle t is visible to every decision of
// cycle t and epoch flips are bit-identical at any worker count. (The other
// half of the fault phase, promoting expired retries, runs per shard:
// promoteRetriesRange.)
func (e *Engine) applyDueFaults() {
	before := e.epoch
	for e.faultIdx < len(e.faultEvents) && e.faultEvents[e.faultIdx].Cycle <= e.now {
		e.applyFault(e.faultEvents[e.faultIdx])
		e.faultIdx++
	}
	if e.epoch != before {
		e.reconfigure()
	}
}

// applyFault executes one schedule event against the liveness mask and
// tears down whatever the failure severed. Events that do not change state
// (failing a failed component, repairing a healthy one) are ignored; every
// effective event — repairs included — advances the routing epoch.
func (e *Engine) applyFault(ev fault.Event) {
	switch ev.Kind {
	case fault.LinkDown:
		if !e.live.SetLink(ev.Node, ev.Port, false) {
			return
		}
		e.epoch++
		e.recordFault(trace.KindFault, ev.Node)
		e.killOnLink(ev.Node, ev.Port)
	case fault.LinkUp:
		if e.live.SetLink(ev.Node, ev.Port, true) {
			e.epoch++
			e.recordFault(trace.KindRepair, ev.Node)
		}
	case fault.RouterDown:
		if !e.live.SetRouter(ev.Node, false) {
			return
		}
		e.epoch++
		e.recordFault(trace.KindFault, ev.Node)
		e.killOnRouter(ev.Node)
	case fault.RouterUp:
		if e.live.SetRouter(ev.Node, true) {
			e.epoch++
			e.recordFault(trace.KindRepair, ev.Node)
		}
	}
}

// recordFault records a component-level fault or repair at node; there is no
// associated message, so the message ID is -1.
func (e *Engine) recordFault(kind trace.Kind, node topology.NodeID) {
	e.record(event{kind: kind, id: -1, src: node, dst: node, at: node})
}

// killOnLink kills every in-flight message whose occupied path crosses the
// now-dead channel (node, port). A wormhole that loses any link of its path
// is severed: the whole message is torn down and handed back to its source.
//
// A message holds the link exactly while its path contains the downstream
// input buffer, and for that whole window it either still owns the upstream
// output virtual channel or still has flits in the buffer (its Tail moves
// past the buffer the moment the tail pops). Scanning the link's virtual
// channels therefore finds exactly the messages whose paths cross it.
func (e *Engine) killOnLink(n topology.NodeID, p topology.Port) {
	kills := e.killScratch[:0]
	for v := 0; v < e.cfg.VCs; v++ {
		if m := e.ownerOf(n, int(p)*e.cfg.VCs+v); m != nil {
			kills = append(kills, m)
		}
		if m := e.in[e.downstream(n, p, v)].buf.FrontMessage(); m != nil {
			kills = append(kills, m)
		}
	}
	e.processKills(kills, n)
}

// killOnRouter kills every in-flight message touching the now-dead router
// n — flits buffered at n, paths crossing a channel into or out of n, or
// messages addressed to n — drops everything queued at n (a crashed node
// loses its volatile state), and kills whatever its injection channels were
// streaming in.
func (e *Engine) killOnRouter(n topology.NodeID) {
	nd := &e.nodes[n]
	kills := e.killScratch[:0]
	for _, ic := range e.injOf(n) {
		if m := ic.msg; m != nil {
			kills = append(kills, m)
		}
	}
	for _, h := range e.held() {
		if h.m.Dst == n || e.pathTouches(h.m, n) {
			kills = append(kills, h.m)
		}
	}
	e.processKills(kills, n)

	// The dead node's own backlog is lost with it.
	for !nd.queue.Empty() {
		e.drop(e.materialise(n, e.pop(nd)), n, message.DropSourceFailed)
	}
	for _, pr := range nd.recovery {
		e.drop(pr.msg, n, message.DropSourceFailed)
	}
	clear(nd.recovery)
	nd.recovery = nd.recovery[:0]
	for _, pr := range nd.retry {
		e.drop(pr.msg, n, message.DropSourceFailed)
	}
	clear(nd.retry)
	nd.retry = nd.retry[:0]
}

// pathTouches reports whether a buffer on m's path, or the channel feeding
// one, is on router n.
func (e *Engine) pathTouches(m *message.Message, n topology.NodeID) bool {
	for loc, more := m.Tail, m.Tail != message.NoLoc; more; loc, more = e.nextLoc(loc) {
		if loc.Node == n || e.topo.Neighbor(loc.Node, loc.Port) == n {
			return true
		}
	}
	return false
}

// processKills deduplicates the collected messages, orders them by
// generation (killOrder: collection order must not leak into simulation
// state) and kills each.
func (e *Engine) processKills(kills []*message.Message, at topology.NodeID) {
	slices.SortFunc(kills, func(a, b *message.Message) int {
		return killOrder(a.GenTime, b.GenTime, a.Src, b.Src, a.ID, b.ID)
	})
	for _, m := range slices.Compact(kills) {
		e.kill(m, at)
	}
	e.killScratch = kills[:0]
}

// killOrder compares two messages as a kill batch orders them: by generation
// cycle, source, then id — generation order, a node drawing its ids in
// sequence. Canonical encoding records the same order (snapshot_canon.go).
func killOrder(genA, genB int64, srcA, srcB topology.NodeID, idA, idB message.ID) int {
	return cmp.Or(cmp.Compare(genA, genB), cmp.Compare(srcA, srcB), cmp.Compare(idA, idB))
}

// kill tears message m out of the network and decides its fate: a source
// retry after backoff, or a permanent drop when an endpoint router is dead
// or the retry budget is spent.
func (e *Engine) kill(m *message.Message, at topology.NodeID) {
	e.teardown(m)
	e.record(eventOf(trace.KindAborted, m, at))
	switch {
	case !e.live.RouterAlive(m.Dst):
		e.drop(m, at, message.DropUnreachable)
	case !e.live.RouterAlive(m.Src):
		e.drop(m, at, message.DropSourceFailed)
	case e.cfg.Retry.Exhausted(int(m.Retries)):
		e.drop(m, at, message.DropRetriesExhausted)
	default:
		e.scheduleRetry(m)
	}
}

// scheduleRetry re-arms a killed message at its original source with the
// policy's capped exponential backoff.
func (e *Engine) scheduleRetry(m *message.Message) {
	m.ResetForRetry(m.Src)
	delay := e.cfg.Retry.Delay(int(m.Retries) - 1)
	src := &e.nodes[m.Src]
	src.retry = append(src.retry, pending{msg: m, readyAt: e.now + delay})
	e.record(eventOf(trace.KindRetried, m, m.Src))
}

// drop permanently removes a message from the workload with the given
// reason. The caller has already detached it from all network state, so the
// message can be recycled immediately.
func (e *Engine) drop(m *message.Message, at topology.NodeID, reason message.DropReason) {
	m.Drop(reason)
	e.record(eventOf(trace.KindDropped, m, at))
	e.releaseMessage(m)
}
