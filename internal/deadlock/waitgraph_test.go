package deadlock

import (
	"reflect"
	"testing"
)

// buildOp is one construction step of a hand-built wait graph.
type buildOp struct {
	id       int64
	live     bool
	blockers [][]int64 // nil: no options; each entry is one option's blockers
}

// TestWaitGraphTable exercises the oracle on hand-built configurations,
// independently of the explorer that normally feeds it.
func TestWaitGraphTable(t *testing.T) {
	cases := []struct {
		name string
		ops  []buildOp
		want []int64 // expected deadlocked set (nil = none)
	}{
		{
			name: "empty graph",
			ops:  nil,
			want: nil,
		},
		{
			name: "single live message",
			ops:  []buildOp{{id: 1, live: true}},
			want: nil,
		},
		{
			name: "blocked on a live message drains",
			ops: []buildOp{
				{id: 1, live: true},
				{id: 2, blockers: [][]int64{{1}}},
			},
			want: nil,
		},
		{
			name: "two-cycle deadlock",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2}}},
				{id: 2, blockers: [][]int64{{1}}},
			},
			want: []int64{1, 2},
		},
		{
			name: "three-cycle deadlock",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2}}},
				{id: 2, blockers: [][]int64{{3}}},
				{id: 3, blockers: [][]int64{{1}}},
			},
			want: []int64{1, 2, 3},
		},
		{
			// The recoverable near-cycle: 1→2→3→1 is a cycle shape, but 2
			// has a second, immediately free option (an unallocated useful
			// channel), so the whole ring eventually drains — exactly the
			// configuration ALO's "at least one free useful channel"
			// property keeps reachable.
			name: "near-cycle with one escape is recoverable",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2}}},
				{id: 2, blockers: [][]int64{{3}, {}}},
				{id: 3, blockers: [][]int64{{1}}},
			},
			want: nil,
		},
		{
			name: "chain without cycle drains",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2}}},
				{id: 2, blockers: [][]int64{{3}}},
				{id: 3, live: true},
			},
			want: nil,
		},
		{
			// A victim outside the core: 4 waits only on the deadlocked
			// cycle, so it is deadlocked too even though it is on no cycle.
			name: "victim blocked on a deadlocked core",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2}}},
				{id: 2, blockers: [][]int64{{1}}},
				{id: 4, blockers: [][]int64{{1}, {2}}},
			},
			want: []int64{1, 2, 4},
		},
		{
			// An option blocked by an unknown message (not a waiting
			// network message, e.g. a draining one never registered): the
			// blocker counts as live, so the waiter escapes.
			name: "unknown blocker treated as live",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{99}}},
			},
			want: nil,
		},
		{
			// Options with several blockers (a free VC whose downstream
			// buffer drains only after two stacked messages pass): the
			// option clears only when all of them are live.
			name: "multi-blocker option needs all blockers live",
			ops: []buildOp{
				{id: 1, blockers: [][]int64{{2, 3}}},
				{id: 2, live: true},
				{id: 3, blockers: [][]int64{{1}}},
			},
			want: []int64{1, 3},
		},
		{
			name: "blocked with no options at all is deadlocked",
			ops: []buildOp{
				{id: 7, blockers: [][]int64{}},
			},
			want: []int64{7},
		},
		{
			// Two disjoint components: a live pair and a dead cycle; only
			// the cycle is reported.
			name: "mixed components",
			ops: []buildOp{
				{id: 1, live: true},
				{id: 2, blockers: [][]int64{{1}}},
				{id: 5, blockers: [][]int64{{6}}},
				{id: 6, blockers: [][]int64{{5}}},
			},
			want: []int64{5, 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := NewWaitGraph()
			for _, op := range tc.ops {
				if op.live {
					g.AddLive(op.id)
					continue
				}
				g.AddBlocked(op.id)
				for _, opt := range op.blockers {
					g.AddOption(op.id, opt...)
				}
			}
			got := g.Deadlocked()
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Deadlocked() = %v, want %v", got, tc.want)
			}
			if g.HasDeadlock() != (len(tc.want) > 0) {
				t.Fatalf("HasDeadlock() = %v inconsistent with %v", g.HasDeadlock(), tc.want)
			}
		})
	}
}

// TestWaitGraphOrderIndependence: the fixpoint must not depend on
// insertion order (the engine feeds messages in ID order, but the oracle
// should not rely on that).
func TestWaitGraphOrderIndependence(t *testing.T) {
	build := func(order []int64) []int64 {
		g := NewWaitGraph()
		for _, id := range order {
			switch id {
			case 1:
				g.AddBlocked(1)
				g.AddOption(1, 2)
			case 2:
				g.AddBlocked(2)
				g.AddOption(2, 3)
			case 3:
				g.AddLive(3)
			}
		}
		return g.Deadlocked()
	}
	want := build([]int64{1, 2, 3})
	for _, order := range [][]int64{{3, 2, 1}, {2, 3, 1}, {1, 3, 2}} {
		if got := build(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: got %v, want %v", order, got, want)
		}
	}
}

// TestWaitGraphReset: a reset graph is the empty graph, whatever it held. The
// engine and the model checker reuse one graph across states, and a slot an
// earlier state used keeps its option storage, so nothing of the old state's
// messages, flags or options may leak into the next one's answer.
func TestWaitGraphReset(t *testing.T) {
	g := NewWaitGraph()
	// A dead cycle, 1 <-> 2, with a second option of 1's also blocked by 2.
	g.AddBlocked(1)
	g.AddOption(1, 2)
	g.AddOption(1, 2)
	g.AddBlocked(2)
	g.AddOption(2, 1)
	if got := g.Deadlocked(); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("before Reset: Deadlocked() = %v, want [1 2]", got)
	}
	g.Reset()
	if got := g.Deadlocked(); got != nil {
		t.Fatalf("after Reset: Deadlocked() = %v, want none", got)
	}
	// The same ids again: 1 now has one free option, so 2, waiting on 1,
	// drains too. A stale option or blocked flag would keep the old cycle.
	g.AddBlocked(2)
	g.AddOption(2, 1)
	g.AddBlocked(1)
	g.AddOption(1)
	if got := g.Deadlocked(); got != nil {
		t.Fatalf("rebuilt after Reset: Deadlocked() = %v, want none", got)
	}
	// And a fresh dead cycle over a third id is found as one.
	g.Reset()
	g.AddBlocked(3)
	g.AddOption(3, 3)
	if got := g.Deadlocked(); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("self-wait after Reset: Deadlocked() = %v, want [3]", got)
	}
}
