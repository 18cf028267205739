// Package fault implements deterministic, seed-driven fault injection for
// the wormhole simulator: timed schedules of link and router failures
// (permanent or transient), a planner that draws reproducible random
// schedules from a profile, and the source-retry policy (capped exponential
// backoff with a retry limit) applied to messages the faults kill.
//
// The package is pure description: it knows nothing about the simulation
// engine. internal/sim consumes a Schedule by applying its events at cycle
// boundaries to a topology.Liveness mask and tearing down the in-flight
// messages whose paths die; internal/routing filters dead channels out of
// the useful-channel set, so injection limiters (ALO in particular)
// automatically see the reduced capacity.
package fault

import (
	"fmt"
	"slices"
	"sort"

	"wormnet/internal/topology"
)

// Kind enumerates the fault event types.
type Kind int8

// Fault event kinds. Down events kill capacity; Up events restore it
// (transient faults are a Down/Up pair on the same component).
const (
	LinkDown Kind = iota
	LinkUp
	RouterDown
	RouterUp
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case RouterDown:
		return "router-down"
	case RouterUp:
		return "router-up"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault occurrence. Node identifies the failed router,
// or — for link events — the node whose outgoing channel Port fails.
type Event struct {
	Cycle int64
	Kind  Kind
	Node  topology.NodeID
	Port  topology.Port // valid for link events only
}

// String formats the event as a log line.
func (e Event) String() string {
	if e.Kind == LinkDown || e.Kind == LinkUp {
		return fmt.Sprintf("[%8d] %-11s node %d port %d", e.Cycle, e.Kind, e.Node, e.Port)
	}
	return fmt.Sprintf("[%8d] %-11s node %d", e.Cycle, e.Kind, e.Node)
}

// Schedule is an ordered list of fault events. Build one with Add calls or
// the Plan helper; the simulation engine walks it once, applying events
// whose cycle has arrived at each cycle boundary.
type Schedule struct {
	events []Event // by cycle, events of one cycle in the order added
}

// Add inserts an event after every event of its cycle or an earlier one. The
// schedule is always in order, so reading it writes nothing: configurations
// running on several goroutines may share one.
func (s *Schedule) Add(ev Event) *Schedule {
	i := sort.Search(len(s.events), func(i int) bool { return s.events[i].Cycle > ev.Cycle })
	s.events = slices.Insert(s.events, i, ev)
	return s
}

// FailLink schedules a permanent failure of the unidirectional channel
// (node, port) at the given cycle.
func (s *Schedule) FailLink(cycle int64, node topology.NodeID, port topology.Port) *Schedule {
	return s.Add(Event{Cycle: cycle, Kind: LinkDown, Node: node, Port: port})
}

// RestoreLink schedules the repair of the channel (node, port).
func (s *Schedule) RestoreLink(cycle int64, node topology.NodeID, port topology.Port) *Schedule {
	return s.Add(Event{Cycle: cycle, Kind: LinkUp, Node: node, Port: port})
}

// FailRouter schedules a whole-router failure at the given cycle.
func (s *Schedule) FailRouter(cycle int64, node topology.NodeID) *Schedule {
	return s.Add(Event{Cycle: cycle, Kind: RouterDown, Node: node})
}

// RestoreRouter schedules the repair of a failed router.
func (s *Schedule) RestoreRouter(cycle int64, node topology.NodeID) *Schedule {
	return s.Add(Event{Cycle: cycle, Kind: RouterUp, Node: node})
}

// Events returns the schedule's events sorted by cycle (stable, so events
// added for the same cycle apply in insertion order).
func (s *Schedule) Events() []Event { return s.events }

// Len returns the number of scheduled events.
func (s *Schedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Empty reports whether the schedule holds no events. A nil schedule is
// empty: an engine configured with one behaves exactly like the fault-free
// seed simulator.
func (s *Schedule) Empty() bool { return s.Len() == 0 }

// Validate checks that every event names a component of torus t.
func (s *Schedule) Validate(t *topology.Torus) error {
	if s == nil {
		return nil
	}
	for _, ev := range s.events {
		if ev.Cycle < 0 {
			return fmt.Errorf("fault: negative event cycle %d", ev.Cycle)
		}
		if !t.Valid(ev.Node) {
			return fmt.Errorf("fault: event names invalid node %d", ev.Node)
		}
		switch ev.Kind {
		case LinkDown, LinkUp, RouterDown, RouterUp:
		default:
			return fmt.Errorf("fault: unknown event kind %v", ev.Kind)
		}
		if ev.Kind == LinkDown || ev.Kind == LinkUp {
			if int(ev.Port) < 0 || int(ev.Port) >= t.NumPorts() {
				return fmt.Errorf("fault: event names invalid port %d", ev.Port)
			}
		}
	}
	return nil
}

// Profile parameterises the random schedule planner.
type Profile struct {
	// LinkFraction is the fraction of the network's unidirectional channels
	// (nodes * 2n of them) to fail, in [0, 1].
	LinkFraction float64
	// RouterFraction is the fraction of routers to fail, in [0, 1].
	RouterFraction float64
	// At is the cycle the first failure strikes.
	At int64
	// Stagger spreads the failures uniformly over [At, At+Stagger]; zero
	// makes them simultaneous.
	Stagger int64
	// TransientFraction is the fraction of failures that heal, in [0, 1];
	// each healing failure gets a matching Up event RepairAfter cycles
	// after its Down event.
	TransientFraction float64
	// RepairAfter is the outage length of transient failures, in cycles.
	RepairAfter int64
	// FlapCount makes transient failures flap: each healing component goes
	// down again FlapCount more times after its first repair, every
	// FlapPeriod cycles, healing after RepairAfter each time. Zero (the
	// default) keeps the single Down/Up pair.
	FlapCount int
	// FlapPeriod is the cycle distance between successive Down events of a
	// flapping component; it must exceed RepairAfter so the component is up
	// again before it re-fails.
	FlapPeriod int64
	// Seed drives the planner's (deterministic) randomness.
	Seed uint64
}

// Validate checks the profile's ranges.
func (p Profile) Validate() error {
	switch {
	case p.LinkFraction < 0 || p.LinkFraction > 1:
		return fmt.Errorf("fault: link fraction %v outside [0,1]", p.LinkFraction)
	case p.RouterFraction < 0 || p.RouterFraction > 1:
		return fmt.Errorf("fault: router fraction %v outside [0,1]", p.RouterFraction)
	case p.TransientFraction < 0 || p.TransientFraction > 1:
		return fmt.Errorf("fault: transient fraction %v outside [0,1]", p.TransientFraction)
	case p.At < 0 || p.Stagger < 0:
		return fmt.Errorf("fault: negative At or Stagger")
	case p.TransientFraction > 0 && p.RepairAfter < 1:
		return fmt.Errorf("fault: transient faults need RepairAfter >= 1")
	case p.FlapCount < 0:
		return fmt.Errorf("fault: negative flap count %d", p.FlapCount)
	case p.FlapCount > 0 && p.TransientFraction <= 0:
		return fmt.Errorf("fault: flapping needs TransientFraction > 0 (only healing failures can re-fail)")
	case p.FlapCount > 0 && p.FlapPeriod <= p.RepairAfter:
		return fmt.Errorf("fault: flap period %d must exceed RepairAfter %d", p.FlapPeriod, p.RepairAfter)
	}
	return nil
}

// Plan draws a reproducible random schedule from the profile: a seed-driven
// sample of round(LinkFraction * links) distinct channels and
// round(RouterFraction * nodes) distinct routers, failed at (staggered)
// cycles, a TransientFraction of them healing after RepairAfter cycles.
// With FlapCount > 0, each healing component re-fails FlapCount more times
// at FlapPeriod intervals (healing after RepairAfter each time), producing a
// link-flap storm. The same profile and torus always yield the same
// schedule.
func Plan(t *topology.Torus, p Profile) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := newRNG(p.Seed)
	s := &Schedule{}

	nLinks := t.Nodes() * t.NumPorts()
	failLinks := int(p.LinkFraction*float64(nLinks) + 0.5)
	for _, li := range rng.sample(nLinks, failLinks) {
		node := topology.NodeID(li / t.NumPorts())
		port := topology.Port(li % t.NumPorts())
		down := p.At
		if p.Stagger > 0 {
			down += rng.int64n(p.Stagger + 1)
		}
		s.FailLink(down, node, port)
		if p.TransientFraction > 0 && rng.float64() < p.TransientFraction {
			s.RestoreLink(down+p.RepairAfter, node, port)
			for f := 1; f <= p.FlapCount; f++ {
				at := down + int64(f)*p.FlapPeriod
				s.FailLink(at, node, port)
				s.RestoreLink(at+p.RepairAfter, node, port)
			}
		}
	}

	failRtrs := int(p.RouterFraction*float64(t.Nodes()) + 0.5)
	for _, ni := range rng.sample(t.Nodes(), failRtrs) {
		node := topology.NodeID(ni)
		down := p.At
		if p.Stagger > 0 {
			down += rng.int64n(p.Stagger + 1)
		}
		s.FailRouter(down, node)
		if p.TransientFraction > 0 && rng.float64() < p.TransientFraction {
			s.RestoreRouter(down+p.RepairAfter, node)
			for f := 1; f <= p.FlapCount; f++ {
				at := down + int64(f)*p.FlapPeriod
				s.FailRouter(at, node)
				s.RestoreRouter(at+p.RepairAfter, node)
			}
		}
	}
	return s, nil
}

// RetryPolicy is the source-side reaction to a fault killing a message:
// re-enqueue it at its source after a capped exponential backoff, giving up
// (dropping the message) once the retry limit is exhausted.
type RetryPolicy struct {
	// MaxRetries is the number of re-injection attempts before the message
	// is dropped.
	MaxRetries int
	// BackoffBase is the delay before the first retry, in cycles; retry i
	// waits min(BackoffBase << i, BackoffCap) cycles.
	BackoffBase int64
	// BackoffCap bounds the exponential growth, in cycles.
	BackoffCap int64
}

// DefaultRetryPolicy returns the standard policy: 8 attempts starting at 16
// cycles, doubling up to a 1024-cycle cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 8, BackoffBase: 16, BackoffCap: 1024}
}

// Validate checks the policy's ranges.
func (p RetryPolicy) Validate() error {
	switch {
	case p.MaxRetries < 0:
		return fmt.Errorf("fault: negative retry limit %d", p.MaxRetries)
	case p.BackoffBase < 1:
		return fmt.Errorf("fault: backoff base %d < 1", p.BackoffBase)
	case p.BackoffCap < p.BackoffBase:
		return fmt.Errorf("fault: backoff cap %d below base %d", p.BackoffCap, p.BackoffBase)
	}
	return nil
}

// Delay returns the backoff before retry number attempt (0-based):
// min(BackoffBase << attempt, BackoffCap).
func (p RetryPolicy) Delay(attempt int) int64 {
	d := p.BackoffBase
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d >= p.BackoffCap || d <= 0 { // <= 0 guards shift overflow
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Exhausted reports whether a message that has already been retried
// attempts times must be dropped instead of retried again.
func (p RetryPolicy) Exhausted(attempts int) bool { return attempts >= p.MaxRetries }

// rng is a small SplitMix64 generator: the planner must not depend on
// math/rand's unspecified algorithm for cross-version reproducibility.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// int64n returns a uniform int64 in [0, n).
func (r *rng) int64n(n int64) int64 { return int64(r.next() % uint64(n)) }

// float64 returns a uniform float64 in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// sample draws k distinct values from [0, n) in random order
// (partial Fisher-Yates over the index range).
func (r *rng) sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
