package traffic

// Generator state save/restore for engine snapshots. Both Source and
// BurstySource are driven entirely by their math/rand/v2 PCG streams plus a
// few scalars; rand.Rand itself buffers nothing across calls (ExpFloat64 and
// Float64 are stateless transforms of the next PCG output), so capturing the
// PCG words and the scalars reproduces the exact future event sequence.

import (
	"bytes"
	"errors"
	"fmt"
)

// GenState is the serializable state of a traffic generator. PCG holds the
// marshalled primary stream; PhasePCG, On and PhaseEnds are used only by
// BurstySource (Bursty true).
type GenState struct {
	Bursty    bool
	PCG       []byte
	PhasePCG  []byte
	Next      float64
	On        bool
	PhaseEnds float64
	// Script and Pos belong to ScriptSource (Script true): the replay
	// cursor into its configured event list.
	Script bool
	Pos    int64
	// Rogue marks RogueSource state (rogue.go); it reuses PCG and Next.
	Rogue bool
}

// Stateful is implemented by generators whose full state can be captured and
// restored for checkpoint/restore. A restored generator continues with the
// exact event sequence of the original.
type Stateful interface {
	Generator
	SaveState() (GenState, error)
	LoadState(GenState) error
}

// is reports whether st is exactly want. A LoadState holds the state it is given
// to the one it would save, built from the fields it reads, so that a field it
// would drop — another generator kind's — has to be zero.
func (st *GenState) is(want *GenState) bool {
	return st.Bursty == want.Bursty && bytes.Equal(st.PCG, want.PCG) && bytes.Equal(st.PhasePCG, want.PhasePCG) &&
		st.Next == want.Next && st.On == want.On && st.PhaseEnds == want.PhaseEnds &&
		st.Script == want.Script && st.Pos == want.Pos && st.Rogue == want.Rogue
}

// SaveState implements Stateful.
func (s *Source) SaveState() (GenState, error) {
	b, err := s.pcg.MarshalBinary()
	if err != nil {
		return GenState{}, fmt.Errorf("traffic: marshal source rng: %w", err)
	}
	return GenState{PCG: b, Next: s.next}, nil
}

// LoadState implements Stateful.
func (s *Source) LoadState(st GenState) error {
	if !st.is(&GenState{PCG: st.PCG, Next: st.Next}) {
		return errors.New("traffic: foreign generator state loaded into steady source")
	}
	if err := s.pcg.UnmarshalBinary(st.PCG); err != nil {
		return fmt.Errorf("traffic: unmarshal source rng: %w", err)
	}
	s.next = st.Next
	return nil
}

// SaveState implements Stateful.
func (s *BurstySource) SaveState() (GenState, error) {
	b, err := s.pcg.MarshalBinary()
	if err != nil {
		return GenState{}, fmt.Errorf("traffic: marshal bursty rng: %w", err)
	}
	pb, err := s.ppcg.MarshalBinary()
	if err != nil {
		return GenState{}, fmt.Errorf("traffic: marshal bursty phase rng: %w", err)
	}
	return GenState{
		Bursty:    true,
		PCG:       b,
		PhasePCG:  pb,
		Next:      s.next,
		On:        s.on,
		PhaseEnds: s.phaseEnds,
	}, nil
}

// LoadState implements Stateful.
func (s *BurstySource) LoadState(st GenState) error {
	if !st.is(&GenState{Bursty: true, PCG: st.PCG, PhasePCG: st.PhasePCG, Next: st.Next, On: st.On, PhaseEnds: st.PhaseEnds}) {
		return errors.New("traffic: foreign generator state loaded into bursty source")
	}
	if err := s.pcg.UnmarshalBinary(st.PCG); err != nil {
		return fmt.Errorf("traffic: unmarshal bursty rng: %w", err)
	}
	if err := s.ppcg.UnmarshalBinary(st.PhasePCG); err != nil {
		return fmt.Errorf("traffic: unmarshal bursty phase rng: %w", err)
	}
	s.next = st.Next
	s.on = st.On
	s.phaseEnds = st.PhaseEnds
	return nil
}

// Compile-time interface checks.
var (
	_ Stateful = (*Source)(nil)
	_ Stateful = (*BurstySource)(nil)
)
