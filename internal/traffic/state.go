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
	"math/rand/v2"
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
// exact event sequence of the original. SaveStateInto overwrites every field
// of dst, reusing what dst already holds where it is still right: a stream
// that has not moved since dst was last saved keeps its bytes and allocates
// nothing.
type Stateful interface {
	Generator
	SaveStateInto(dst *GenState) error
	LoadState(GenState) error
}

// savePCG returns the encoding of p: held itself when it already encodes p,
// else a fresh MarshalBinary. The encoding is one-to-one, so held is then
// exactly the bytes MarshalBinary would return. held's array is never
// written: a snapshot that shares it, or hostile storage handed in, stays as
// it was.
func savePCG(p *rand.PCG, held []byte) ([]byte, error) {
	var cur rand.PCG
	if cur.UnmarshalBinary(held) == nil && cur == *p {
		return held, nil
	}
	return p.MarshalBinary()
}

// IsZero reports whether st is the zero GenState, which no generator saves.
func (st *GenState) IsZero() bool { return st.is(&GenState{}) }

// is reports whether st is exactly want. A LoadState holds the state it is given
// to the one it would save, built from the fields it reads, so that a field it
// would drop — another generator kind's — has to be zero.
func (st *GenState) is(want *GenState) bool {
	return st.Bursty == want.Bursty && bytes.Equal(st.PCG, want.PCG) && bytes.Equal(st.PhasePCG, want.PhasePCG) &&
		st.Next == want.Next && st.On == want.On && st.PhaseEnds == want.PhaseEnds &&
		st.Script == want.Script && st.Pos == want.Pos && st.Rogue == want.Rogue
}

// SaveStateInto implements Stateful.
func (s *Source) SaveStateInto(dst *GenState) error {
	b, err := savePCG(&s.pcg, dst.PCG)
	if err != nil {
		return fmt.Errorf("traffic: marshal source rng: %w", err)
	}
	*dst = GenState{PCG: b, Next: s.next}
	return nil
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

// SaveStateInto implements Stateful.
func (s *BurstySource) SaveStateInto(dst *GenState) error {
	b, err := savePCG(&s.pcg, dst.PCG)
	if err != nil {
		return fmt.Errorf("traffic: marshal bursty rng: %w", err)
	}
	pb, err := savePCG(&s.ppcg, dst.PhasePCG)
	if err != nil {
		return fmt.Errorf("traffic: marshal bursty phase rng: %w", err)
	}
	*dst = GenState{
		Bursty:    true,
		PCG:       b,
		PhasePCG:  pb,
		Next:      s.next,
		On:        s.on,
		PhaseEnds: s.phaseEnds,
	}
	return nil
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
