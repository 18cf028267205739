package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"wormnet/internal/topology"
)

// Generator is a per-node message generation process. Source (steady
// Poisson) and BurstySource (on/off modulated Poisson) implement it.
type Generator interface {
	// Poll appends all messages generated up to and including cycle now.
	Poll(now int64, dst []Generated) []Generated
	// NextAt returns the earliest cycle at which Poll may do anything
	// (generate a message or advance internal phase state); Poll calls
	// before that cycle are guaranteed no-ops. The simulation engine uses
	// it to skip idle sources without touching their state.
	NextAt() int64
	// Node returns the node this generator belongs to.
	Node() topology.NodeID
}

// BurstProfile parameterises an on/off modulated source. The paper's
// motivation (§1) cites studies showing real parallel applications produce
// bursty traffic whose peaks transiently saturate the network [Silla et
// al. ICPP'98, Flich et al. ICPP'99]; this profile reproduces that shape
// synthetically.
//
// The process alternates exponentially distributed ON and OFF periods with
// the given mean lengths (in cycles). During ON periods messages are
// generated at the peak rate; during OFF periods the source is silent. For
// a long-run average offered load R, the peak rate is
// R * (OnMean+OffMean) / OnMean.
//
// The zero value means "not bursty" (steady Poisson).
type BurstProfile struct {
	OnMean  float64 // mean ON period length in cycles
	OffMean float64 // mean OFF period length in cycles
	// Synchronized makes every node follow the *same* ON/OFF schedule,
	// modelling the phase behaviour of parallel applications (all ranks
	// compute, then all ranks communicate). Independent phases (the
	// default) model uncorrelated background burstiness, which largely
	// averages out across nodes; synchronized bursts are what transiently
	// saturate the whole network.
	Synchronized bool
}

// Enabled reports whether the profile describes a bursty source.
func (p BurstProfile) Enabled() bool { return p.OnMean > 0 && p.OffMean > 0 }

// PeakFactor returns the ratio of peak (ON-period) rate to the long-run
// average rate: (OnMean+OffMean)/OnMean. It returns 1 when disabled.
func (p BurstProfile) PeakFactor() float64 {
	if !p.Enabled() {
		return 1
	}
	return (p.OnMean + p.OffMean) / p.OnMean
}

// Validate reports whether the profile is usable.
func (p BurstProfile) Validate() error {
	if p.OnMean < 0 || p.OffMean < 0 {
		return fmt.Errorf("traffic: negative burst period means (%v, %v)", p.OnMean, p.OffMean)
	}
	if (p.OnMean > 0) != (p.OffMean > 0) {
		return fmt.Errorf("traffic: burst profile needs both period means set (got %v, %v)", p.OnMean, p.OffMean)
	}
	if p.Enabled() && (p.OnMean < 1 || p.OffMean < 1) {
		return fmt.Errorf("traffic: burst period means must be >= 1 cycle (got %v, %v)", p.OnMean, p.OffMean)
	}
	return nil
}

// BurstySource is an on/off modulated Poisson message generator: a Source
// whose generation events are gated by alternating ON/OFF periods. Like a
// Source it holds its random streams by value and reads them through pointers
// into itself, so it is used where Init put it, never a copy.
type BurstySource struct {
	node    topology.NodeID
	pattern Pattern
	rng     rand.Rand // generation events and destinations
	prng    rand.Rand // ON/OFF phase process (shared seed when synchronized)
	pcg     rand.PCG  // the stream behind rng, also what state save/load writes
	ppcg    rand.PCG  // the stream behind prng
	msgLen  int
	profile BurstProfile

	peakGap float64 // mean cycles between messages during ON periods

	on        bool
	phaseEnds float64 // cycle the current ON/OFF period ends
	next      float64 // next generation event (valid while on)
}

// NewBurstySource returns an on/off source; see Init.
func NewBurstySource(node topology.NodeID, pattern Pattern, rate float64, msgLen int,
	profile BurstProfile, seed1, seed2 uint64) *BurstySource {
	s := new(BurstySource)
	s.Init(node, pattern, rate, msgLen, profile, seed1, seed2)
	return s
}

// Init makes s, in place, the on/off source of one node with long-run average
// rate rate (flits/node/cycle). It panics on invalid parameters, mirroring
// Source.Init.
func (s *BurstySource) Init(node topology.NodeID, pattern Pattern, rate float64, msgLen int,
	profile BurstProfile, seed1, seed2 uint64) {
	if rate < 0 {
		panic(fmt.Sprintf("traffic: negative rate %v", rate))
	}
	if msgLen < 1 {
		panic(fmt.Sprintf("traffic: message length %d < 1", msgLen))
	}
	if err := profile.Validate(); err != nil {
		panic(err.Error())
	}
	if !profile.Enabled() {
		panic("traffic: BurstySource needs an enabled profile; use NewSource for steady traffic")
	}
	*s = BurstySource{node: node, pattern: pattern, msgLen: msgLen, profile: profile, pcg: *rand.NewPCG(seed1, seed2)}
	if profile.Synchronized {
		// All nodes draw the phase schedule from the same stream: the
		// phase seed depends only on the run seed, not on the node.
		s.ppcg = *rand.NewPCG(seed1, 0xB0057)
	} else {
		s.ppcg = *rand.NewPCG(seed2, seed1^0xB0057)
	}
	s.rng = *rand.New(&s.pcg)
	s.prng = *rand.New(&s.ppcg)
	if rate == 0 {
		s.peakGap = math.Inf(1)
	} else {
		peakRate := rate * profile.PeakFactor()
		s.peakGap = float64(msgLen) / peakRate
	}
	s.on = s.prng.Float64() < profile.OnMean/(profile.OnMean+profile.OffMean)
	s.phaseEnds = s.periodLen()
	s.next = s.rng.ExpFloat64() * s.peakGap
}

func (s *BurstySource) periodLen() float64 {
	if s.on {
		return s.prng.ExpFloat64() * s.profile.OnMean
	}
	return s.prng.ExpFloat64() * s.profile.OffMean
}

// Node implements Generator.
func (s *BurstySource) Node() topology.NodeID { return s.node }

// On reports whether the source is currently in an ON period (for tests
// and monitoring).
func (s *BurstySource) On() bool { return s.on }

// Poll implements Generator.
func (s *BurstySource) Poll(now int64, dst []Generated) []Generated {
	for {
		g, ok := s.step(float64(now))
		if !ok {
			return dst
		}
		dst = append(dst, g)
	}
}

// step implements stepper.
func (s *BurstySource) step(t float64) (Generated, bool) {
	for {
		// Advance through phase boundaries that occurred before t.
		if s.phaseEnds <= t {
			boundary := s.phaseEnds
			s.on = !s.on
			s.phaseEnds = boundary + s.periodLen()
			if s.on {
				// Re-arm the generation clock at the period start.
				s.next = boundary + s.rng.ExpFloat64()*s.peakGap
			}
			continue
		}
		if !s.on || s.next > t {
			return Generated{}, false
		}
		if s.next >= s.phaseEnds {
			// The next event falls past this ON period: skip to the
			// boundary on the next loop iteration.
			s.next = math.Inf(1)
			continue
		}
		d := s.pattern.Destination(s.node, &s.rng)
		s.next += s.rng.ExpFloat64() * s.peakGap
		if d != s.node {
			return Generated{Dst: d, Length: s.msgLen}, true
		}
	}
}

// NextAt implements Generator: the next phase boundary, or the next
// generation event if it comes sooner during an ON period.
func (s *BurstySource) NextAt() int64 {
	t := s.phaseEnds
	if s.on && s.next < t {
		t = s.next
	}
	if math.IsInf(t, 1) {
		return math.MaxInt64
	}
	return int64(math.Ceil(t))
}

// Compile-time interface checks.
var (
	_ Generator = (*Source)(nil)
	_ Generator = (*BurstySource)(nil)
)
