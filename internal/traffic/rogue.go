package traffic

// RogueSource is the adversarial generation process: a node that offers
// load without regard for the injection limiter (the engine bypasses the
// limiter gate for rogue nodes; this source only shapes *what* they offer).
// Its destination choice is duty-cycled: during the ON part of each storm
// period every message targets a fixed hotspot node — a coordinated burst
// that concentrates saturation where it hurts — and outside it the rogue
// blends in with uniform traffic. A zero storm period keeps the storm
// permanently on.
//
// Arrivals are Poisson like the well-behaved Source, so rogue pressure is
// an offered *rate*, comparable with the x-axis of the paper's figures.

import (
	"fmt"
	"math"
	"math/rand/v2"

	"wormnet/internal/topology"
)

// RogueSource generates adversarial traffic for one node. Construct with
// NewRogueSource; the zero value is unusable.
type RogueSource struct {
	node    topology.NodeID
	uniform *Uniform
	hot     topology.NodeID
	period  int64 // storm duty-cycle period; 0 = storm always on
	on      int64 // leading cycles of each period spent storming
	rng     *rand.Rand
	pcg     *rand.PCG
	msgLen  int
	next    float64
	meanGap float64
}

// NewRogueSource returns an adversarial generator for node. rate is the
// rogue's offered load in flits/node/cycle (must be positive — a silent
// rogue is no rogue); msgLen the message length in flits. During cycles c
// with c%period < on, messages target hot; otherwise destinations are
// uniform. period 0 means the storm never pauses. seed1/seed2 seed the
// node's private stream, exactly like NewSource.
func NewRogueSource(node topology.NodeID, nodes int, hot topology.NodeID,
	rate float64, msgLen int, period, on int64, seed1, seed2 uint64) *RogueSource {
	if rate <= 0 {
		panic(fmt.Sprintf("traffic: rogue rate %v must be positive", rate))
	}
	if msgLen < 1 {
		panic(fmt.Sprintf("traffic: message length %d < 1", msgLen))
	}
	if period < 0 || on < 0 || (period > 0 && on > period) {
		panic(fmt.Sprintf("traffic: bad storm duty cycle %d/%d", on, period))
	}
	pcg := rand.NewPCG(seed1, seed2)
	s := &RogueSource{
		node:    node,
		uniform: &Uniform{nodes: nodes},
		hot:     hot,
		period:  period,
		on:      on,
		rng:     rand.New(pcg),
		pcg:     pcg,
		msgLen:  msgLen,
		meanGap: float64(msgLen) / rate,
	}
	s.next = s.rng.ExpFloat64() * s.meanGap
	return s
}

// storming reports whether the storm is on at the given cycle.
func (s *RogueSource) storming(cycle int64) bool {
	if s.period == 0 {
		return true
	}
	return cycle%s.period < s.on
}

// Poll implements Generator. Each event's storm-window decision uses the
// event's own nominal cycle (the ceiling of its arrival time), not the poll
// cycle, so the sequence is independent of how generation polls batch up.
func (s *RogueSource) Poll(now int64, dst []Generated) []Generated {
	for {
		g, ok := s.step(float64(now))
		if !ok {
			return dst
		}
		dst = append(dst, g)
	}
}

// step implements stepper.
func (s *RogueSource) step(t float64) (Generated, bool) {
	for s.next <= t {
		cycle := int64(math.Ceil(s.next))
		var d topology.NodeID
		if s.storming(cycle) && s.node != s.hot {
			d = s.hot
		} else {
			d = s.uniform.Destination(s.node, s.rng)
		}
		s.next += s.rng.ExpFloat64() * s.meanGap
		if d != s.node {
			return Generated{Dst: d, Length: s.msgLen}, true
		}
	}
	return Generated{}, false
}

// NextAt implements Generator.
func (s *RogueSource) NextAt() int64 {
	if math.IsInf(s.next, 1) {
		return maxInt64
	}
	return int64(math.Ceil(s.next))
}

// Node implements Generator.
func (s *RogueSource) Node() topology.NodeID { return s.node }

// SaveStateInto implements Stateful.
func (s *RogueSource) SaveStateInto(dst *GenState) error {
	b, err := savePCG(s.pcg, dst.PCG)
	if err != nil {
		return fmt.Errorf("traffic: marshal rogue rng: %w", err)
	}
	*dst = GenState{Rogue: true, PCG: b, Next: s.next}
	return nil
}

// LoadState implements Stateful.
func (s *RogueSource) LoadState(st GenState) error {
	if !st.is(&GenState{Rogue: true, PCG: st.PCG, Next: st.Next}) {
		return fmt.Errorf("traffic: foreign generator state loaded into rogue source")
	}
	if err := s.pcg.UnmarshalBinary(st.PCG); err != nil {
		return fmt.Errorf("traffic: unmarshal rogue rng: %w", err)
	}
	s.next = st.Next
	return nil
}

// Compile-time interface check.
var _ Stateful = (*RogueSource)(nil)
