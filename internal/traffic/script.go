package traffic

// ScriptSource: a fully deterministic, enumerable traffic generator that
// replays an explicit event list. The model checker (internal/modelcheck)
// uses it to re-drive an engine through a recorded injection schedule when
// replaying a counterexample, and it doubles as a general trace-driven
// source for experiments.

import (
	"errors"
	"fmt"
	"sort"

	"wormnet/internal/topology"
)

// Event is one scripted generation: at cycle Cycle the source emits a
// message of Length flits addressed to Dst.
type Event struct {
	Cycle  int64
	Dst    topology.NodeID
	Length int
}

// Enumerable is implemented by generators whose entire future event
// sequence is known in advance, so an exhaustive explorer can enumerate it
// rather than sample it. Remaining reports how many events are still
// pending; a generator with Remaining() == 0 is permanently silent.
type Enumerable interface {
	Generator
	Remaining() int
}

// SourceFactory builds the traffic generator for one node. It is the
// engine's hook for replacing the default Poisson/bursty sources with
// scripted or otherwise custom ones (sim.Config.Sources).
type SourceFactory func(node topology.NodeID) Generator

// ScriptSource replays a fixed event list for one node, in cycle order.
// The zero value is unusable; construct with NewScriptSource.
type ScriptSource struct {
	node   topology.NodeID
	events []Event
	pos    int
}

// NewScriptSource returns a scripted generator for node. The events are
// copied and stably sorted by cycle (ties keep the given order, so a script
// may emit several messages in one cycle in a chosen order). Events with
// Length < 1 or a self-addressed destination are rejected: silently
// dropping them would desynchronise a replay from the schedule it encodes.
func NewScriptSource(node topology.NodeID, events []Event) (*ScriptSource, error) {
	evs := append([]Event(nil), events...)
	for i, ev := range evs {
		if ev.Length < 1 {
			return nil, fmt.Errorf("traffic: script event %d: length %d < 1", i, ev.Length)
		}
		if ev.Dst == node {
			return nil, fmt.Errorf("traffic: script event %d: self-addressed (node %d)", i, node)
		}
		if ev.Cycle < 0 {
			return nil, fmt.Errorf("traffic: script event %d: negative cycle %d", i, ev.Cycle)
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Cycle < evs[b].Cycle })
	return &ScriptSource{node: node, events: evs}, nil
}

// Poll implements Generator.
func (s *ScriptSource) Poll(now int64, dst []Generated) []Generated {
	for s.pos < len(s.events) && s.events[s.pos].Cycle <= now {
		ev := s.events[s.pos]
		dst = append(dst, Generated{Dst: ev.Dst, Length: ev.Length})
		s.pos++
	}
	return dst
}

// NextAt implements Generator.
func (s *ScriptSource) NextAt() int64 {
	if s.pos >= len(s.events) {
		return maxInt64
	}
	return s.events[s.pos].Cycle
}

// Node implements Generator.
func (s *ScriptSource) Node() topology.NodeID { return s.node }

// Remaining implements Enumerable.
func (s *ScriptSource) Remaining() int { return len(s.events) - s.pos }

// SaveStateInto implements Stateful. Only the cursor is saved; the script
// itself is configuration, re-supplied on restore via the same factory.
func (s *ScriptSource) SaveStateInto(dst *GenState) error {
	*dst = GenState{Script: true, Pos: int64(s.pos)}
	return nil
}

// LoadState implements Stateful.
func (s *ScriptSource) LoadState(st GenState) error {
	if !st.is(&GenState{Script: true, Pos: st.Pos}) {
		return errors.New("traffic: non-script state loaded into script source")
	}
	if st.Pos < 0 || st.Pos > int64(len(s.events)) {
		return fmt.Errorf("traffic: script cursor %d of %d events", st.Pos, len(s.events))
	}
	s.pos = int(st.Pos)
	return nil
}

// ReplayFactory builds a SourceFactory replaying per-node event lists —
// the trace-driven workload path: record a run's generation events (e.g.
// obs.ReadReplay over a -trace-out JSONL stream), then re-drive any engine
// configuration with the identical offered schedule. Nodes absent from the
// map get an empty script (permanently silent). Invalid events (a factory
// has no error channel) panic when the node's generator is built; traces
// recorded by the engine are valid by construction, so this only fires on
// hand-edited input.
func ReplayFactory(events map[topology.NodeID][]Event) SourceFactory {
	return func(node topology.NodeID) Generator {
		s, err := NewScriptSource(node, events[node])
		if err != nil {
			panic(err)
		}
		return s
	}
}

const maxInt64 = int64(^uint64(0) >> 1)

// Compile-time interface checks.
var (
	_ Stateful   = (*ScriptSource)(nil)
	_ Enumerable = (*ScriptSource)(nil)
)
