package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"wormnet/internal/topology"
)

// Source is the per-node message generation process: a Poisson process whose
// rate is expressed in flits per node per cycle, matching the paper's
// "message injection rate is the same for all nodes. Each node generates
// messages independently, according to an exponential distribution."
//
// A Source holds its random stream by value and rng reads it through a pointer
// into the Source itself, so a Source is used where Init put it — an element of
// a slice that is never reallocated, or NewSource's allocation — never a copy.
type Source struct {
	node    topology.NodeID
	pattern Pattern
	rng     rand.Rand
	pcg     rand.PCG // the stream behind rng, also what state save/load writes
	msgLen  int
	next    float64 // cycle of the next generation event
	meanGap float64 // mean cycles between messages
}

// NewSource returns a generation process for one node; see Init.
func NewSource(node topology.NodeID, pattern Pattern, rate float64, msgLen int, seed1, seed2 uint64) *Source {
	s := new(Source)
	s.Init(node, pattern, rate, msgLen, seed1, seed2)
	return s
}

// Init makes s, in place, the generation process of one node.
//
// rate is the offered load in flits/node/cycle; msgLen is the message length
// in flits, so messages are generated with mean inter-arrival msgLen/rate
// cycles. A rate of 0 produces no messages. seed1/seed2 seed the node's
// private deterministic random stream.
func (s *Source) Init(node topology.NodeID, pattern Pattern, rate float64, msgLen int, seed1, seed2 uint64) {
	if rate < 0 {
		panic(fmt.Sprintf("traffic: negative rate %v", rate))
	}
	if msgLen < 1 {
		panic(fmt.Sprintf("traffic: message length %d < 1", msgLen))
	}
	*s = Source{node: node, pattern: pattern, msgLen: msgLen, pcg: *rand.NewPCG(seed1, seed2)}
	s.rng = *rand.New(&s.pcg)
	if rate == 0 {
		s.meanGap = math.Inf(1)
		s.next = math.Inf(1)
	} else {
		s.meanGap = float64(msgLen) / rate
		s.next = s.expGap()
	}
}

func (s *Source) expGap() float64 {
	return s.rng.ExpFloat64() * s.meanGap
}

// Generated is one generation event: a destination and a length.
type Generated struct {
	Dst    topology.NodeID
	Length int
}

// Poll appends to dst all messages generated up to and including cycle now,
// and returns the extended slice. Self-addressed messages (permutation fixed
// points) are suppressed, as they never enter the network.
func (s *Source) Poll(now int64, dst []Generated) []Generated {
	for {
		g, ok := s.step(float64(now))
		if !ok {
			return dst
		}
		dst = append(dst, g)
	}
}

// step implements stepper.
func (s *Source) step(t float64) (Generated, bool) {
	for s.next <= t {
		d := s.pattern.Destination(s.node, &s.rng)
		s.next += s.expGap()
		if d != s.node {
			return Generated{Dst: d, Length: s.msgLen}, true
		}
	}
	return Generated{}, false
}

// NextAt implements Generator: the first cycle now satisfying
// s.next <= now.
func (s *Source) NextAt() int64 {
	if math.IsInf(s.next, 1) {
		return math.MaxInt64
	}
	return int64(math.Ceil(s.next))
}

// Node returns the node this source generates for.
func (s *Source) Node() topology.NodeID { return s.node }
