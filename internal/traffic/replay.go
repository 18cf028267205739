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

// Replayer is a Stateful generator whose messages can be drawn again from a
// saved stream position.
type Replayer interface {
	Stateful
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
	// swap exchanges the generator's stream position with c's.
	swap(c *Cursor)
}

// replay is Replay of any Replayer: it borrows r's stream at c's position
// and puts it back.
func replay(r interface {
	stepper
	swap(*Cursor)
}, c *Cursor, until int64) (Generated, int64, bool) {
	r.swap(c)
	g, at, ok := replayOne(r, until)
	r.swap(c)
	return g, at, ok
}

// SaveCursorInto writes into dst the state r saves (Stateful) when its stream
// is at c, reusing dst's bytes where they still encode it: a cursor in the
// form a snapshot stores. r's own state is unchanged.
func SaveCursorInto(r Replayer, c *Cursor, dst *GenState) error {
	r.swap(c)
	err := r.SaveStateInto(dst)
	r.swap(c)
	return err
}

// LoadCursor sets c to the stream position st holds, refusing what r's
// LoadState refuses. r's own state is unchanged.
func LoadCursor(r Replayer, st GenState, c *Cursor) error {
	r.swap(c)
	err := r.LoadState(st)
	r.swap(c)
	return err
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
func (s *Source) Replay(c *Cursor, until int64) (Generated, int64, bool) { return replay(s, c, until) }

func (s *Source) swap(c *Cursor) {
	s.pcg, c.pcg = c.pcg, s.pcg
	s.next, c.next = c.next, s.next
}

// SaveCursor implements Replayer.
func (s *BurstySource) SaveCursor(c *Cursor) {
	*c = Cursor{pcg: s.pcg, phase: s.ppcg, next: s.next, phaseEnds: s.phaseEnds, on: s.on}
}

// Replay implements Replayer.
func (s *BurstySource) Replay(c *Cursor, until int64) (Generated, int64, bool) {
	return replay(s, c, until)
}

func (s *BurstySource) swap(c *Cursor) {
	s.pcg, c.pcg = c.pcg, s.pcg
	s.ppcg, c.phase = c.phase, s.ppcg
	s.next, c.next = c.next, s.next
	s.phaseEnds, c.phaseEnds = c.phaseEnds, s.phaseEnds
	s.on, c.on = c.on, s.on
}

// SaveCursor implements Replayer.
func (s *RogueSource) SaveCursor(c *Cursor) { *c = Cursor{pcg: *s.pcg, next: s.next} }

// Replay implements Replayer.
func (s *RogueSource) Replay(c *Cursor, until int64) (Generated, int64, bool) {
	return replay(s, c, until)
}

func (s *RogueSource) swap(c *Cursor) {
	*s.pcg, c.pcg = c.pcg, *s.pcg
	s.next, c.next = c.next, s.next
}

// Compile-time interface checks.
var (
	_ Replayer = (*Source)(nil)
	_ Replayer = (*BurstySource)(nil)
	_ Replayer = (*RogueSource)(nil)
)
