package sim

import (
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// recover implements the software-based recovery of a presumed-deadlocked
// message: every flit the message holds in the network is removed, every
// virtual channel it occupies (sender-side allocations and routes) is
// released, and the complete message is queued for re-injection at the node
// that held its header — charged with the configured software processing
// delay. The message keeps its generation timestamp, so the recovery cost
// shows up in its latency.
func (e *Engine) recover(m *message.Message, at *node) {
	e.recovered++
	e.col.OnDeadlock(e.now)
	e.emit(trace.KindDeadlock, m, at.id)

	e.teardown(m)

	m.ResetForReinjection(at.id)
	if e.spans != nil {
		e.spanTeardown(m)
	}
	at.recovery = append(at.recovery, pendingRecovery{
		msg:     m,
		readyAt: e.now + e.cfg.RecoveryDelay,
	})
	e.emit(trace.KindRecovered, m, at.id)
}

// teardown removes every trace of message m from the network: the
// injection channel it may still hold, every buffered flit, every route and
// every virtual channel (sender-side allocations up- and downstream of each
// buffer) it occupies, keeping the active-set counters consistent. The
// message's own progress counters are untouched; callers reset or drop the
// message afterwards. Both deadlock recovery and the fault-kill machinery
// run exactly this teardown.
func (e *Engine) teardown(m *message.Message) {
	// Free the injection channel if the message is still streaming in.
	inj := &e.nodes[m.Injector]
	for i := range inj.inj {
		ic := &inj.inj[i]
		if ic.msg != m {
			continue
		}
		if ic.route.valid {
			e.clearWant(inj, ic.route)
			if ic.route.eject {
				if ej := &inj.ej[ic.route.ejCh]; ej.msg == m {
					m.FlitsEjected += int(ej.pending)
					ej.pending = 0
					ej.msg = nil
				}
			} else if o := e.inVCIndex(ic.route.outPort, ic.route.outVC); inj.outVCs[o].ReleaseIfOwner(m) {
				inj.free |= 1 << uint(o)
			}
		}
		// Settle the deferred flit accounting before the channel forgets
		// how much of the message it had streamed.
		m.FlitsSent = int(ic.len - ic.left)
		ic.msg = nil
		ic.len = 0
		ic.route = routeInfo{}
		inj.freshInj &^= 1 << uint(i)
		inj.busyInj--
	}

	// Tear down the path: remove buffered flits, clear routes, release the
	// virtual channels feeding and leaving every buffer the message holds.
	for _, loc := range m.Path {
		nd := &e.nodes[loc.Node]
		a := e.inVCIndex(loc.Port, loc.VC)
		ivc := &nd.in[a]
		bit := uint64(1) << uint(a)
		if ivc.buf.RemoveMessage(m.ID) > 0 {
			if ivc.buf.Empty() {
				nd.occVCs--
				e.empty[loc.Node] |= bit
			}
			if !ivc.buf.Full() {
				e.full[loc.Node] &^= bit
			}
		}
		// The buffer held only this message's flits, so a valid route on it
		// belongs to the message: release the onward channel it claimed.
		if rt := &nd.routes[a]; rt.valid {
			e.clearWant(nd, *rt)
			if rt.eject {
				if ej := &nd.ej[rt.ejCh]; ej.msg == m {
					m.FlitsEjected += int(ej.pending)
					ej.pending = 0
					ej.msg = nil
				}
			} else if o := e.inVCIndex(rt.outPort, rt.outVC); nd.outVCs[o].ReleaseIfOwner(m) {
				nd.free |= 1 << uint(o)
			}
			*rt = routeInfo{}
			nd.routed &^= bit
			nd.fresh &^= bit
		}
		nd.blocked.Progress(a)
		// Release the upstream allocation feeding this buffer (a no-op when
		// the tail already passed through it).
		up := &e.nodes[e.topo.Neighbor(loc.Node, loc.Port)]
		if o := e.inVCIndex(topology.Opposite(loc.Port), loc.VC); up.outVCs[o].ReleaseIfOwner(m) {
			up.free |= 1 << uint(o)
		}
	}
	m.Path = m.Path[:0]
}
