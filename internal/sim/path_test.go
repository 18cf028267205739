package sim

import (
	"slices"
	"strings"
	"testing"

	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// pathOf walks m's path as the engine does: its Tail, then each hop the
// routes it claimed lead to (at most every input VC once: a corrupt loop ends
// the walk there).
func pathOf(e *Engine, m *message.Message) []pathLoc {
	var p []pathLoc
	for loc, more := m.Tail, m.Tail != message.NoLoc; more && len(p) <= len(e.in); loc, more = e.nextLoc(loc) {
		p = append(p, loc)
	}
	return p
}

// snake are the output ports of a worm that winds through the 4-ary 2-cube
// from node 0: three hops up dimension 0, three up dimension 1, two back down
// dimension 0 — eight input VCs at eight nodes, three more than the
// diameter + 1 a per-message path array was sized for.
var snake = []topology.Port{0, 0, 0, 2, 2, 2, 1, 1}

// lay builds, by hand, message m holding virtual channel vc of one input port
// per hop of ports from node src: every flit injected, two to a buffer, its
// tail in the first and its unrouted head in the last, each buffer routed on
// to the next over an output VC m owns. It returns the VCs in path order.
func lay(t *testing.T, e *Engine, m *message.Message, src topology.NodeID, ports []topology.Port, vc int8) []pathLoc {
	t.Helper()
	if int(m.Length) != 2*len(ports) {
		t.Fatalf("a %d-flit message on %d buffers", m.Length, len(ports))
	}
	var locs []pathLoc
	at := src
	for _, p := range ports {
		locs = append(locs, e.landing(at, p, vc))
		at = locs[len(locs)-1].Node
	}
	m.State, m.FlitsSent, m.InjectTime, m.Tail = message.StateInNetwork, m.Length, e.now, locs[0]
	for i, loc := range locs {
		a := e.inVCIndex(loc.Port, loc.VC)
		ivc := &e.inOf(loc.Node)[a]
		seq := int(m.Length) - 2*(i+1) // the tail buffer holds the last two flits
		ivc.buf.Push(message.MakeFlit(m, seq))
		ivc.buf.Push(message.MakeFlit(m, seq+1))
		if i+1 < len(locs) {
			r := routeInfo{valid: true, outPort: ports[i+1], outVC: vc, epoch: uint16(e.epoch)}
			e.routesOf(loc.Node)[a] = r
			e.setWant(&e.nodes[loc.Node], a, r)
		}
		e.rederive(&e.nodes[loc.Node])
	}
	e.total[trace.KindGenerated]++
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("the hand-laid worm: %v", err)
	}
	if got := pathOf(e, m); !slices.Equal(got, locs) {
		t.Fatalf("walked path %v, laid %v", got, locs)
	}
	return locs
}

// clean reports the first channel state the engine still holds for anything:
// a buffered flit, a route, an owned output VC.
func clean(e *Engine) string {
	for c := range e.in {
		switch {
		case !e.in[c].buf.Empty():
			return "a buffered flit"
		case e.routes[c].valid:
			return "a route"
		}
	}
	for i := range e.nodes {
		if e.nodes[i].free != e.inMask {
			return "an owned output VC"
		}
	}
	return ""
}

// TestDetourLongerThanDiameter lays a worm over eight input VCs — more than
// the diameter + 1 = 5 a path array sized for minimal routes held, the case it
// had to copy out; routing is minimal under faults too, so the worm is laid
// by hand — and checks that every consumer of the walked path sees all of it: a snapshot lists it and restores it, the move
// phase drains it to delivery, and both deadlock recovery and a router fault
// in its middle tear it down completely.
func TestDetourLongerThanDiameter(t *testing.T) {
	dst := topology.NodeID(12) // (0, 3): one hop on from the snake's last node, (1, 3)
	worm := func(t *testing.T, e *Engine) (*message.Message, []pathLoc) {
		if d := e.cfg.N*(e.cfg.K/2) + 1; len(snake) <= d {
			t.Fatalf("a snake of %d hops is no longer than diameter + 1 = %d", len(snake), d)
		}
		m := message.New(0, 0, dst, 2*len(snake), 0)
		reserveIDs(e, 1)
		return m, lay(t, e, m, 0, snake, 0)
	}

	t.Run("snapshot", func(t *testing.T) {
		e := idle(t, nil)
		defer e.Close()
		_, locs := worm(t, e)
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Messages) != 1 || snap.Messages[0].Tail != 1+int32(int(locs[0].Node)*e.nVC+e.inVCIndex(locs[0].Port, locs[0].VC)) {
			t.Fatalf("snapshot lists %v", snap.Messages)
		}
		r := idle(t, nil)
		defer r.Close()
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
		held := r.held()
		if len(held) != 1 || !slices.Equal(pathOf(r, held[0].m), locs) {
			t.Fatalf("restored %d messages, path %v", len(held), pathOf(r, held[0].m))
		}
	})

	t.Run("drain", func(t *testing.T) {
		e := idle(t, nil)
		defer e.Close()
		m, locs := worm(t, e)
		for m.Tail == locs[0] {
			stepN(t, e, 1)
		}
		if got := pathOf(e, m); m.Tail != locs[1] || len(got) < len(locs)-1 || !slices.Equal(got[:len(locs)-1], locs[1:]) {
			t.Fatalf("after the tail's first hop the path is %v, want it to start at %v", got, locs[1])
		}
		for m.State != message.StateDelivered && e.Now() < 200 {
			stepN(t, e, 1)
		}
		if m.State != message.StateDelivered || m.Tail != message.NoLoc {
			t.Fatalf("after %d cycles: %v, Tail %+v", e.Now(), m, m.Tail)
		}
		if what := clean(e); what != "" {
			t.Fatalf("the delivered worm left %s", what)
		}
	})

	t.Run("recovery", func(t *testing.T) {
		e := idle(t, nil)
		defer e.Close()
		m, locs := worm(t, e)
		head := &e.nodes[locs[len(locs)-1].Node]
		e.recover(m, head)
		if what := clean(e); what != "" {
			t.Fatalf("recovery left %s", what)
		}
		if m.Tail != message.NoLoc || len(head.recovery) != 1 || head.recovery[0].msg != m {
			t.Fatalf("recovered message: Tail %+v, %d entries at its header's node", m.Tail, len(head.recovery))
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("router fault", func(t *testing.T) {
		mid := topology.NodeID(7) // (3, 1): the node of the fourth buffer
		e := faulty(t, (&fault.Schedule{}).FailRouter(1, mid), nil)
		defer e.Close()
		m, locs := worm(t, e)
		if !slices.ContainsFunc(locs, func(l pathLoc) bool { return l.Node == mid }) {
			t.Fatalf("node %d is not on the path %v", mid, locs)
		}
		stepN(t, e, 2)
		if e.Aborted() != 1 || m.Tail != message.NoLoc || len(e.nodes[m.Src].retry) != 1 {
			t.Fatalf("the fault aborted %d messages; Tail %+v, %d retries waiting at the source", e.Aborted(), m.Tail, len(e.nodes[m.Src].retry))
		}
		if what := clean(e); what != "" {
			t.Fatalf("the router fault left %s", what)
		}
	})
}

// TestInvariantCatchesCorruptPath corrupts the path of a hand-laid worm —
// a route led into another message's buffer, a chain that loops back on
// itself, a Tail the tail flit has not reached, one it has left, and one left
// on the message after recovery tore it down — and CheckInvariants must
// refuse each as a path fault.
func TestInvariantCatchesCorruptPath(t *testing.T) {
	corruptions := map[string]func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc){
		"a route pointing at a foreign VC": func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc) {
			// The second buffer, at node 2, sends the worm on over output VC
			// (0, 0); send it over (2, 1) instead, into a buffer a one-flit
			// message holds.
			at, nd := locs[1], &e.nodes[locs[1].Node]
			a := e.inVCIndex(at.Port, at.VC)
			old := e.routesOf(nd.id)[a]
			r := routeInfo{valid: true, outPort: 2, outVC: 1, epoch: old.epoch}
			e.clearWant(nd, old)
			e.routesOf(nd.id)[a] = r
			e.setWant(nd, a, r)
			other := message.New(1, 9, 5, 1, 0)
			x := e.landing(nd.id, r.outPort, r.outVC)
			other.State, other.FlitsSent, other.Tail = message.StateInNetwork, 1, x
			ivc := &e.inOf(x.Node)[e.inVCIndex(x.Port, x.VC)]
			ivc.buf.Push(message.MakeFlit(other, 0))
			e.total[trace.KindGenerated]++
			e.rederive(nd)
			e.rederive(&e.nodes[x.Node])
		},
		"a loop": func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc) {
			// A second worm on VC 1 once round dimension 0's ring from node 0,
			// its last buffer, at node 0, routed on into its first.
			other := message.New(1, 0, 5, 8, 0)
			ring := lay(t, e, other, 0, []topology.Port{0, 0, 0, 0}, 1)
			last, nd := ring[len(ring)-1], &e.nodes[0]
			r := routeInfo{valid: true, outPort: 0, outVC: 1, epoch: uint16(e.epoch)}
			if e.landing(nd.id, r.outPort, r.outVC) != ring[0] {
				t.Fatal("the ring does not close")
			}
			a := e.inVCIndex(last.Port, last.VC)
			e.routesOf(nd.id)[a] = r
			e.setWant(nd, a, r)
			e.rederive(nd)
		},
		"a Tail one hop ahead": func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc) { m.Tail = locs[1] },
		"a Tail left on a recovered message": func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc) {
			e.recover(m, &e.nodes[locs[len(locs)-1].Node])
			m.Tail = locs[0]
		},
		"a Tail the tail left": func(t *testing.T, e *Engine, m *message.Message, locs []pathLoc) {
			for m.Tail == locs[0] {
				stepN(t, e, 1)
			}
			m.Tail = locs[0]
		},
	}
	for name, corrupt := range corruptions {
		e := idle(t, nil)
		m := message.New(0, 0, 12, 2*len(snake), 0)
		reserveIDs(e, 2)
		corrupt(t, e, m, lay(t, e, m, 0, snake, 0))
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "path") {
			t.Errorf("%s: CheckInvariants says %v", name, err)
		}
		e.Close()
	}
}
