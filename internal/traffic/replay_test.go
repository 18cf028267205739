package traffic

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"wormnet/internal/topology"
)

// drawn is one generated message as a caller polling every cycle sees it.
type drawn struct {
	dst   topology.NodeID
	cycle int64
}

// pollFrom polls g at every cycle in [from, to).
func pollFrom(g Generator, from, to int64) []drawn {
	var out []drawn
	var buf []Generated
	for c := from; c < to; c++ {
		buf = g.Poll(c, buf[:0])
		for _, m := range buf {
			out = append(out, drawn{m.Dst, c})
		}
	}
	return out
}

// replayTo replays from c every message generated before cycle to.
func replayTo(r Replayer, c *Cursor, to int64) []drawn {
	var out []drawn
	for {
		g, at, ok := r.Replay(c, to-1)
		if !ok {
			return out
		}
		out = append(out, drawn{g.Dst, at})
	}
}

// selfish sends every other draw, at random, to the source itself: the
// suppressed self-addressed draws of a permutation's fixed points, mixed into
// a stream that does generate.
type selfish struct{ nodes int }

func (p selfish) Destination(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if rng.IntN(2) == 0 {
		return src
	}
	return topology.NodeID(rng.IntN(p.nodes))
}

func (selfish) Name() string { return "selfish" }

// TestReplayMatchesPoll holds Replay to Poll for every replayable generator:
// from a position saved before the first poll, and from one saved mid-run,
// replaying yields exactly the (destination, cycle) sequence polling every
// cycle yields — the cycle being the first one at or after the arrival time
// — and, polled through the last cycle, the replayed cursor is the live
// generator's position. Replaying never moves the generator it borrows.
func TestReplayMatchesPoll(t *testing.T) {
	tp := topology.New(4, 2)
	const cycles = 6000
	uniform, reversal := NewUniform(tp), NewBitReversal(tp)
	profile := BurstProfile{OnMean: 40, OffMean: 60}
	synced := BurstProfile{OnMean: 25, OffMean: 35, Synchronized: true}
	cases := []struct {
		name string
		mk   func() Replayer
	}{
		{"source", func() Replayer { return NewSource(3, uniform, 0.5, 16, 1, 2) }},
		// Bit reversal maps node 6 (0110) to itself: every draw is suppressed.
		{"source fixed point", func() Replayer { return NewSource(6, reversal, 0.5, 16, 1, 2) }},
		{"source reversal", func() Replayer { return NewSource(1, reversal, 0.5, 16, 1, 2) }},
		{"source half self-addressed", func() Replayer { return NewSource(5, selfish{16}, 0.8, 8, 3, 4) }},
		// 40 flits a cycle in 16-flit messages: two or three a cycle.
		{"source several a cycle", func() Replayer { return NewSource(2, uniform, 40, 16, 5, 6) }},
		{"bursty", func() Replayer { return NewBurstySource(3, uniform, 0.8, 16, profile, 7, 8) }},
		{"bursty synchronised", func() Replayer { return NewBurstySource(9, uniform, 0.4, 16, synced, 7, 9) }},
		{"bursty several a cycle", func() Replayer { return NewBurstySource(4, uniform, 20, 16, synced, 1, 3) }},
		{"bursty half self-addressed", func() Replayer { return NewBurstySource(8, selfish{16}, 1, 8, profile, 2, 2) }},
		{"rogue", func() Replayer { return NewRogueSource(1, 16, 7, 0.9, 16, 50, 20, 11, 12) }},
		{"rogue always storming", func() Replayer { return NewRogueSource(2, 16, 7, 3, 16, 0, 0, 11, 13) }},
		{"rogue at the hotspot", func() Replayer { return NewRogueSource(7, 16, 7, 0.9, 16, 50, 20, 11, 14) }},
		{"rogue several a cycle", func() Replayer { return NewRogueSource(5, 16, 0, 35, 16, 40, 10, 4, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.mk()
			var start Cursor
			live.SaveCursor(&start)
			want := pollFrom(live, 0, cycles)
			var end Cursor
			live.SaveCursor(&end)

			// From the start, on a generator whose own stream is elsewhere.
			other := tc.mk()
			pollFrom(other, 0, cycles/3)
			var before, after Cursor
			other.SaveCursor(&before)
			c := start
			if got := replayTo(other, &c, cycles); !slices.Equal(got, want) {
				t.Fatalf("replay from the start: %s", diff(got, want))
			}
			if c != end {
				t.Fatalf("replayed through cycle %d, the cursor is not the live generator's position", cycles-1)
			}
			if other.SaveCursor(&after); after != before {
				t.Fatal("Replay moved the generator it borrowed")
			}

			// From a position saved mid-run, between two polls.
			mid := tc.mk()
			pollFrom(mid, 0, cycles/2)
			mid.SaveCursor(&c)
			rest := want
			for len(rest) > 0 && rest[0].cycle < cycles/2 {
				rest = rest[1:]
			}
			if got := replayTo(mid, &c, cycles); !slices.Equal(got, rest) {
				t.Fatalf("replay from cycle %d: %s", cycles/2, diff(got, rest))
			}
			if c != end {
				t.Fatal("replayed from mid-run, the cursor is not the live generator's position")
			}
			// And the borrowed generator polls on as if nothing happened.
			if got := pollFrom(mid, cycles/2, cycles); !slices.Equal(got, rest) {
				t.Fatalf("polling after a replay: %s", diff(got, rest))
			}
			// A cursor saved as generator state loads back as the same cursor,
			// neither moving the generator, which refuses another kind's.
			var st GenState
			if err := SaveCursorInto(other, &start, &st); err != nil {
				t.Fatal(err)
			}
			var back Cursor
			if err := LoadCursor(other, st, &back); err != nil || back != start {
				t.Fatalf("a saved cursor loads back as %+v (%v), want %+v", back, err, start)
			}
			if other.SaveCursor(&after); after != before {
				t.Fatal("saving or loading a cursor moved the generator")
			}
			st.Script = true
			if LoadCursor(other, st, &back) == nil {
				t.Fatal("a cursor of another generator kind loads")
			}
			if other.SaveCursor(&after); after != before {
				t.Fatal("a refused cursor moved the generator")
			}
			if tc.name != "source fixed point" && len(want) < 100 {
				t.Fatalf("only %d messages: the case does not exercise replay", len(want))
			}
		})
	}
}

func diff(got, want []drawn) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("message %d is %+v, Poll gave %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d messages, Poll gave %d", len(got), len(want))
}
