package sim

import (
	"wormnet/internal/message"
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
	e.record(eventOf(trace.KindDeadlock, m, at.id))
	e.teardown(m)
	m.ResetForReinjection(at.id)
	at.recovery = append(at.recovery, pending{
		msg:     m,
		readyAt: e.now + e.cfg.RecoveryDelay,
	})
	e.record(eventOf(trace.KindRecovered, m, at.id))
}

// teardown removes every trace of message m from the network: the
// injection channel it may still hold, every buffered flit, every route, and
// with the routes every output virtual channel they claimed (ownership
// derives from them) and the ejection channel it may hold. The message's own
// progress counters are untouched; callers reset or drop the message
// afterwards. Both deadlock recovery and the fault-kill machinery run exactly
// this teardown. It is rare, so each node it touches rederives its words
// rather than being updated bit by bit.
func (e *Engine) teardown(m *message.Message) {
	// release frees the ejection channel a route of nd claimed for m; an
	// output VC goes with the route itself.
	release := func(nd *node, r routeInfo) {
		if r.valid && r.eject && e.ejOf(nd.id)[r.ejCh].msg == m {
			m.FlitsEjected += e.ejOf(nd.id)[r.ejCh].pending
			e.ejOf(nd.id)[r.ejCh] = ejChannel{}
		}
	}
	// Free the injection channel if the message is still streaming in.
	inj := &e.nodes[m.Injector]
	for i := range e.cfg.InjChannels {
		if ic := &e.injOf(inj.id)[i]; ic.msg == m {
			release(inj, ic.route)
			// Settle the deferred flit accounting before the channel forgets
			// how much of the message it had streamed.
			m.FlitsSent = ic.len - ic.left
			ic.msg, ic.len, ic.route = nil, 0, routeInfo{}
			inj.freshInj &^= 1 << uint(i)
		}
	}
	e.rederive(inj)

	// Tear down the path: remove buffered flits and clear the routes of every
	// buffer the message holds, walking from its tail along the routes it
	// claimed — each next hop read before the route naming it is cleared. The
	// channel feeding each buffer past the first is claimed by the route on
	// the one before it, and the first's by the injection channel's route or
	// by none (the tail already passed it).
	for loc, more := m.Tail, m.Tail != message.NoLoc; more; {
		nd := &e.nodes[loc.Node]
		a := e.inVCIndex(loc.Port, loc.VC)
		next, ok := e.nextLoc(loc)
		e.inOf(nd.id)[a].buf.RemoveMessage(m.ID)
		// The buffer held only this message's flits, so a valid route on it
		// belongs to the message: clearing it releases the onward channel.
		release(nd, e.routesOf(nd.id)[a])
		e.routesOf(nd.id)[a] = routeInfo{}
		nd.fresh &^= 1 << uint(a)
		nd.blocked.Progress(a)
		e.rederive(nd)
		loc, more = next, ok
	}
	m.Tail = message.NoLoc
}
