package traffic

import (
	"math"
	"reflect"
	"testing"
)

func TestScriptSourceReplay(t *testing.T) {
	s, err := NewScriptSource(0, []Event{
		{Cycle: 5, Dst: 3, Length: 4},
		{Cycle: 2, Dst: 1, Length: 8},
		{Cycle: 5, Dst: 2, Length: 6},
	})
	if err != nil {
		t.Fatalf("NewScriptSource: %v", err)
	}
	if got := s.NextAt(); got != 2 {
		t.Fatalf("NextAt = %d, want 2", got)
	}
	if out := s.Poll(1, nil); len(out) != 0 {
		t.Fatalf("Poll(1) = %v, want none", out)
	}
	out := s.Poll(2, nil)
	if len(out) != 1 || out[0].Dst != 1 || out[0].Length != 8 {
		t.Fatalf("Poll(2) = %v", out)
	}
	if got := s.Remaining(); got != 2 {
		t.Fatalf("Remaining = %d, want 2", got)
	}
	// Same-cycle events come out in the given (stable) order.
	out = s.Poll(10, nil)
	if len(out) != 2 || out[0].Dst != 3 || out[1].Dst != 2 {
		t.Fatalf("Poll(10) = %v", out)
	}
	if got := s.NextAt(); got != math.MaxInt64 {
		t.Fatalf("exhausted NextAt = %d, want MaxInt64", got)
	}
	if got := s.Remaining(); got != 0 {
		t.Fatalf("exhausted Remaining = %d", got)
	}
}

func TestScriptSourceValidation(t *testing.T) {
	if _, err := NewScriptSource(0, []Event{{Cycle: 0, Dst: 0, Length: 1}}); err == nil {
		t.Fatal("self-addressed event accepted")
	}
	if _, err := NewScriptSource(0, []Event{{Cycle: 0, Dst: 1, Length: 0}}); err == nil {
		t.Fatal("zero-length event accepted")
	}
	if _, err := NewScriptSource(0, []Event{{Cycle: -1, Dst: 1, Length: 1}}); err == nil {
		t.Fatal("negative-cycle event accepted")
	}
}

func TestScriptSourceState(t *testing.T) {
	events := []Event{{Cycle: 1, Dst: 1, Length: 2}, {Cycle: 3, Dst: 2, Length: 2}}
	s, err := NewScriptSource(0, events)
	if err != nil {
		t.Fatal(err)
	}
	s.Poll(1, nil)
	st := GenState{Bursty: true, PCG: []byte("pcg:"), Next: 5, Rogue: true} // another kind's state, overwritten
	if err := s.SaveStateInto(&st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, GenState{Script: true, Pos: 1}) {
		t.Fatalf("SaveStateInto = %+v", st)
	}
	// Restore into a fresh source built from the same script.
	r, err := NewScriptSource(0, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadState(st); err != nil {
		t.Fatal(err)
	}
	out := r.Poll(10, nil)
	if len(out) != 1 || out[0].Dst != 2 {
		t.Fatalf("restored Poll = %v", out)
	}
	// Cross-type state loads are rejected in both directions.
	if err := r.LoadState(GenState{}); err == nil {
		t.Fatal("script source accepted steady state")
	}
	steady := NewSource(0, &Uniform{nodes: 4}, 0, 2, 1, 2)
	if err := steady.LoadState(st); err == nil {
		t.Fatal("steady source accepted script state")
	}
	if err := r.LoadState(GenState{Script: true, Pos: 99}); err == nil {
		t.Fatal("out-of-range cursor accepted")
	}
}
