package deadlock

import "slices"

// WaitGraph is the ground-truth deadlock oracle: an explicit channel-wait
// graph over the in-flight messages of a network state, with the OR
// semantics of adaptive wormhole routing. Each waiting message has one or
// more *options* (the output virtual channels its routing function admits);
// an option is either immediately available or blocked by the message that
// currently holds the resource (the virtual channel's owner, or the message
// draining the downstream buffer the channel feeds).
//
// A message can eventually advance — is *live* — iff it can advance
// immediately, or some option of it is blocked only by messages that are
// themselves live (the blocker eventually drains and releases the
// resource). The deadlocked set is the complement: the unique maximal set
// of messages every one of whose options depends on another member. This
// is the standard reduction ("drain the live messages, what remains is the
// deadlock") that Verbeek & Schmaltz formalise; Deadlocked computes it as
// a liveness fixpoint, which on a cycle-free wait graph always drains
// everything.
//
// The oracle is structural: it inspects one state, not the engine's future.
// The model checker cross-validates it against the engine's actual
// deterministic continuation (see internal/modelcheck), so a bug here is
// caught as an "oracle unsound" counterexample rather than trusted.
type WaitGraph struct {
	index    map[int64]int32 // message ID -> position in msgs
	msgs     []wgMsg         // insertion order, for deterministic iteration
	blockers []int64         // the blockers of every option, back to back
}

// wgMsg is one in-flight message in the graph.
type wgMsg struct {
	id      int64
	live    bool
	blocked bool       // registered via AddBlocked
	opts    [][2]int32 // each option: its range of blockers (empty = free)
}

// NewWaitGraph returns an empty wait graph.
func NewWaitGraph() *WaitGraph {
	return &WaitGraph{index: make(map[int64]int32)}
}

// Reset empties the graph, keeping its storage for the next state's.
func (g *WaitGraph) Reset() {
	clear(g.index)
	g.msgs, g.blockers = g.msgs[:0], g.blockers[:0]
}

func (g *WaitGraph) get(id int64) *wgMsg {
	i, ok := g.index[id]
	if !ok {
		i = int32(len(g.msgs))
		g.index[id] = i
		g.msgs = slices.Grow(g.msgs, 1)[:i+1] // a slot an earlier graph used keeps its opts storage
		g.msgs[i] = wgMsg{id: id, opts: g.msgs[i].opts[:0]}
	}
	return &g.msgs[i]
}

// AddLive registers message id as able to make progress on its own: its
// header holds a route (or is draining into an ejection channel), so no
// wait edge leaves it.
func (g *WaitGraph) AddLive(id int64) { g.get(id).live = true }

// AddBlocked registers message id as waiting for an output resource. Its
// options are added with AddOption; a blocked message with no options can
// never advance (faults removed every admissible channel).
func (g *WaitGraph) AddBlocked(id int64) { g.get(id).blocked = true }

// AddOption records one admissible output resource of blocked message id.
// blockers lists the messages currently standing in the way (the virtual
// channel's owner, or the message whose flits still occupy the downstream
// buffer); an option with no blockers is immediately available and makes
// the message live. A blocker never registered in the graph is treated as
// live — it is not a waiting network message, so it cannot sustain a cycle.
func (g *WaitGraph) AddOption(id int64, blockers ...int64) {
	m := g.get(id)
	if len(blockers) == 0 {
		m.live = true
		return
	}
	lo := int32(len(g.blockers))
	g.blockers = append(g.blockers, blockers...)
	m.opts = append(m.opts, [2]int32{lo, int32(len(g.blockers))})
}

// Deadlocked computes the liveness fixpoint and returns the IDs of the
// messages that can never advance, in ascending order. An empty result
// means the state is deadlock-free.
func (g *WaitGraph) Deadlocked() []int64 {
	isLive := func(id int64) bool {
		i, ok := g.index[id]
		return !ok || g.msgs[i].live
	}
	// Propagate liveness to a fixpoint: a blocked message becomes live as
	// soon as one of its options is blocked only by live messages. The
	// graph is tiny (bounded messages), so the quadratic sweep is fine.
	for changed := true; changed; {
		changed = false
		for i := range g.msgs {
			m := &g.msgs[i]
			if m.live {
				continue
			}
			for _, opt := range m.opts {
				ok := true
				for _, b := range g.blockers[opt[0]:opt[1]] {
					if !isLive(b) {
						ok = false
						break
					}
				}
				if ok {
					m.live = true
					changed = true
					break
				}
			}
		}
	}
	var dead []int64
	for i := range g.msgs {
		if m := &g.msgs[i]; m.blocked && !m.live {
			dead = append(dead, m.id)
		}
	}
	slices.Sort(dead)
	return dead
}

// HasDeadlock reports whether the fixpoint leaves any message deadlocked.
func (g *WaitGraph) HasDeadlock() bool { return len(g.Deadlocked()) > 0 }
