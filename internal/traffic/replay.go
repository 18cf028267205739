package traffic

// Replaying a generator's stream. A message a source generated is a pure
// function of the source's stream position before it was drawn: its
// destination comes from the stream and its cycle from the arrival time the
// stream holds. So a caller that keeps a copy of the position can draw the
// same messages again later instead of storing them — the simulator's source
// queues keep a backlog that way (internal/sim, fifo.go).

import (
	"math"
	"math/rand/v2"
)

// Cursor is a copy of a replayable generator's stream position: everything
// Poll reads and writes besides the generator's fixed parameters. It is a
// plain fixed-size value, so a caller can hold as many as it likes without
// allocating. The phase fields are BurstySource's; the other generators leave
// them zero.
type Cursor struct {
	pcg, phase rand.PCG
	next       float64
	phaseEnds  float64
	on         bool
}

// Replayer is a Generator whose messages can be drawn again from a saved
// stream position.
type Replayer interface {
	Generator
	// SaveCursor writes the generator's current stream position into c.
	SaveCursor(c *Cursor)
	// Replay draws the next message Poll generates after the position c
	// holds, advancing c just past it, and returns the message and the cycle
	// Poll generates it at: the first cycle at or after its arrival time, for
	// a caller that polls every cycle from NextAt on. Self-addressed draws
	// are skipped, as Poll suppresses them. When no message comes by cycle
	// until, ok is false and c is where polls through until leave it.
	// Replay borrows the generator's own stream while it draws and puts it
	// back, so it must not run concurrently with Poll or another Replay on
	// the same generator; the generator's state is unchanged.
	Replay(c *Cursor, until int64) (g Generated, cycle int64, ok bool)
}

// stepper is one poll of a generator, stopped at each message: step runs
// Poll's loop at cycle t until it draws a message that is not self-addressed
// (true) or the loop would return (false). Each Poll is step repeated, so a
// replay draws exactly what Poll draws.
type stepper interface {
	NextAt() int64
	step(t float64) (Generated, bool)
}

// replayOne polls s at each cycle up to until that can do anything (NextAt)
// until one yields a message. Polls between those cycles are no-ops, so this
// is what a caller polling every cycle sees.
func replayOne(s stepper, until int64) (Generated, int64, bool) {
	for {
		t := s.NextAt()
		if t > until || t == math.MaxInt64 {
			return Generated{}, 0, false
		}
		if g, ok := s.step(float64(t)); ok {
			return g, t, true
		}
	}
}

// SaveCursor implements Replayer.
func (s *Source) SaveCursor(c *Cursor) { *c = Cursor{pcg: s.pcg, next: s.next} }

// Replay implements Replayer.
func (s *Source) Replay(c *Cursor, until int64) (Generated, int64, bool) {
	pcg, next := s.pcg, s.next
	s.pcg, s.next = c.pcg, c.next
	g, at, ok := replayOne(s, until)
	c.pcg, c.next = s.pcg, s.next
	s.pcg, s.next = pcg, next
	return g, at, ok
}

// SaveCursor implements Replayer.
func (s *BurstySource) SaveCursor(c *Cursor) {
	*c = Cursor{pcg: s.pcg, phase: s.ppcg, next: s.next, phaseEnds: s.phaseEnds, on: s.on}
}

// Replay implements Replayer.
func (s *BurstySource) Replay(c *Cursor, until int64) (Generated, int64, bool) {
	var live Cursor
	s.SaveCursor(&live)
	s.load(c)
	g, at, ok := replayOne(s, until)
	s.SaveCursor(c)
	s.load(&live)
	return g, at, ok
}

func (s *BurstySource) load(c *Cursor) {
	s.pcg, s.ppcg, s.next, s.phaseEnds, s.on = c.pcg, c.phase, c.next, c.phaseEnds, c.on
}

// SaveCursor implements Replayer.
func (s *RogueSource) SaveCursor(c *Cursor) { *c = Cursor{pcg: *s.pcg, next: s.next} }

// Replay implements Replayer.
func (s *RogueSource) Replay(c *Cursor, until int64) (Generated, int64, bool) {
	pcg, next := *s.pcg, s.next
	*s.pcg, s.next = c.pcg, c.next
	g, at, ok := replayOne(s, until)
	c.pcg, c.next = *s.pcg, s.next
	*s.pcg, s.next = pcg, next
	return g, at, ok
}

// Compile-time interface checks.
var (
	_ Replayer = (*Source)(nil)
	_ Replayer = (*BurstySource)(nil)
	_ Replayer = (*RogueSource)(nil)
)
