package traffic

import (
	"math"
	"reflect"
	"testing"

	"wormnet/internal/topology"
)

// TestGeneratorsKeepTheNextAtContract drives every generator kind from cycle
// to cycle through NextAt alone: each names the node it was built for, a Poll
// before NextAt is a no-op (nothing generated, NextAt unmoved), and a Poll at
// NextAt either generates or moves NextAt on. An exhausted or silent
// generator reports math.MaxInt64.
func TestGeneratorsKeepTheNextAtContract(t *testing.T) {
	tp := topology.New(4, 2)
	script, err := NewScriptSource(3, []Event{{Cycle: 4, Dst: 1, Length: 2}, {Cycle: 9, Dst: 2, Length: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    Generator
	}{
		{"source", NewSource(3, NewUniform(tp), 0.4, 4, 1, 2)},
		{"bursty", NewBurstySource(3, NewUniform(tp), 0.4, 4, BurstProfile{OnMean: 20, OffMean: 30}, 1, 2)},
		{"rogue", NewRogueSource(3, tp.Nodes(), 5, 1.0, 4, 50, 20, 1, 2)},
		{"script", script},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if g.Node() != 3 {
				t.Fatalf("Node() = %d, want 3", g.Node())
			}
			var gen []Generated
			for step := 0; step < 200; step++ {
				n := g.NextAt()
				if n == math.MaxInt64 {
					if tc.name != "script" {
						t.Fatalf("step %d: an endless generator went silent", step)
					}
					return
				}
				if n > 0 {
					if gen = g.Poll(n-1, gen[:0]); len(gen) != 0 || g.NextAt() != n {
						t.Fatalf("step %d: Poll before NextAt %d generated %d, moved NextAt to %d", step, n, len(gen), g.NextAt())
					}
				}
				if gen = g.Poll(n, gen[:0]); len(gen) == 0 && g.NextAt() <= n {
					t.Fatalf("step %d: Poll at NextAt %d did nothing and left NextAt at %d", step, n, g.NextAt())
				}
			}
			if tc.name == "script" {
				t.Fatal("a two-event script did not run out")
			}
		})
	}
	if n := NewSource(0, NewUniform(tp), 0, 4, 1, 2).NextAt(); n != math.MaxInt64 {
		t.Errorf("a zero-rate source's NextAt = %d, want math.MaxInt64", n)
	}
}

// TestReplayFactory checks that the factory replays each node's list, leaves
// a node without one silent, and panics on an event a script refuses.
func TestReplayFactory(t *testing.T) {
	f := ReplayFactory(map[topology.NodeID][]Event{2: {{Cycle: 3, Dst: 0, Length: 5}}})
	g := f(2)
	if g.Node() != 2 || g.NextAt() != 3 {
		t.Fatalf("node 2's replay: node %d, next at %d", g.Node(), g.NextAt())
	}
	if got := g.Poll(3, nil); !reflect.DeepEqual(got, []Generated{{Dst: 0, Length: 5}}) {
		t.Fatalf("node 2 replayed %v", got)
	}
	if silent := f(1); silent.Node() != 1 || silent.NextAt() != math.MaxInt64 {
		t.Fatalf("a node without events: node %d, next at %d", silent.Node(), silent.NextAt())
	}
	defer func() {
		if recover() == nil {
			t.Error("a self-addressed replay event did not panic")
		}
	}()
	ReplayFactory(map[topology.NodeID][]Event{4: {{Cycle: 1, Dst: 4, Length: 1}}})(4)
}
