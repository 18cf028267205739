package traffic

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"wormnet/internal/topology"
)

// pollTo drives g from cycle from to cycle to and returns the generated
// messages.
func pollTo(g Generator, from, to int64) []Generated {
	var out []Generated
	for c := from; c < to; c++ {
		out = g.Poll(c, out)
	}
	return out
}

// sameStream fails unless a and b are identical event sequences.
func sameStream(t *testing.T, name string, a, b []Generated) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d events vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: event %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestSourceStateRoundTrip pins the generator checkpoint contract: saving a
// source mid-stream and loading the state into a fresh source reproduces the
// exact future event sequence — ids, destinations and cycles.
func TestSourceStateRoundTrip(t *testing.T) {
	tp := topology.New(4, 2)
	mk := func() *Source { return NewSource(3, NewUniform(tp), 0.5, 8, 11, 23) }

	orig := mk()
	pollTo(orig, 0, 3000)
	var st GenState
	if err := orig.SaveStateInto(&st); err != nil {
		t.Fatal(err)
	}
	if st.Bursty {
		t.Error("steady source saved Bursty state")
	}

	clone := mk()
	pollTo(clone, 0, 1234) // desynchronize before loading
	if err := clone.LoadState(st); err != nil {
		t.Fatal(err)
	}
	sameStream(t, "steady", pollTo(orig, 3000, 8000), pollTo(clone, 3000, 8000))

	bad := st
	bad.Bursty = true
	if err := mk().LoadState(bad); err == nil {
		t.Error("steady source accepted bursty state")
	}
}

// TestBurstySourceStateRoundTrip does the same for the on/off source, in both
// phase modes: the restored source must continue the identical burst schedule
// and generation stream.
func TestBurstySourceStateRoundTrip(t *testing.T) {
	tp := topology.New(4, 2)
	for _, sync := range []bool{false, true} {
		profile := BurstProfile{OnMean: 150, OffMean: 300, Synchronized: sync}
		mk := func() *BurstySource { return NewBurstySource(5, NewUniform(tp), 0.8, 8, profile, 31, 47) }

		orig := mk()
		pollTo(orig, 0, 4000)
		var st GenState
		if err := orig.SaveStateInto(&st); err != nil {
			t.Fatal(err)
		}
		if !st.Bursty {
			t.Error("bursty source saved non-bursty state")
		}

		clone := mk()
		pollTo(clone, 0, 777)
		if err := clone.LoadState(st); err != nil {
			t.Fatal(err)
		}
		if clone.On() != orig.On() {
			t.Errorf("sync=%v: restored phase %v, want %v", sync, clone.On(), orig.On())
		}
		sameStream(t, "bursty", pollTo(orig, 4000, 12000), pollTo(clone, 4000, 12000))

		bad := st
		bad.Bursty = false
		if err := mk().LoadState(bad); err == nil {
			t.Error("bursty source accepted steady state")
		}
	}
}

// TestSaveStateIntoKeepsUnmovedStreams pins SaveStateInto's storage contract
// for every generator with a stream: the saved bytes are MarshalBinary's, a
// re-save while no stream has moved keeps them and allocates nothing, a
// re-save after a stream moved takes fresh bytes and leaves the old array as
// it was (another snapshot may share it), a re-save into another kind's
// state clears every field that kind set, and the saved state continues the
// identical event sequence.
func TestSaveStateIntoKeepsUnmovedStreams(t *testing.T) {
	tp := topology.New(4, 2)
	for _, tc := range []struct {
		name    string
		mk      func() Stateful
		streams func(Stateful) []*rand.PCG // the live streams, in GenState order
	}{
		{"steady",
			func() Stateful { return NewSource(3, NewUniform(tp), 0.5, 8, 11, 23) },
			func(g Stateful) []*rand.PCG { return []*rand.PCG{&g.(*Source).pcg} }},
		{"bursty",
			func() Stateful {
				return NewBurstySource(5, NewUniform(tp), 0.8, 8, BurstProfile{OnMean: 150, OffMean: 300}, 31, 47)
			},
			func(g Stateful) []*rand.PCG { b := g.(*BurstySource); return []*rand.PCG{&b.pcg, &b.ppcg} }},
		{"rogue",
			func() Stateful { return NewRogueSource(2, 16, 5, 1.5, 4, 600, 250, 7, 99) },
			func(g Stateful) []*rand.PCG { return []*rand.PCG{g.(*RogueSource).pcg} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.mk()
			held := func(st *GenState) [][]byte { return [][]byte{st.PCG, st.PhasePCG}[:len(tc.streams(g))] }
			save := func(st *GenState) {
				t.Helper()
				if err := g.SaveStateInto(st); err != nil {
					t.Fatal(err)
				}
				for i, p := range tc.streams(g) {
					want, err := p.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if got := held(st)[i]; !bytes.Equal(got, want) {
						t.Fatalf("stream %d saved as %x, MarshalBinary gives %x", i, got, want)
					}
				}
			}

			pollTo(g, 0, 2000)
			var st GenState
			save(&st)
			allocs := testing.AllocsPerRun(100, func() {
				if err := g.SaveStateInto(&st); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("re-saving unmoved streams: %.0f allocations, want 0", allocs)
			}

			old := held(&st)
			kept := make([][]byte, len(old))
			for i := range old {
				kept[i] = bytes.Clone(old[i])
			}
			pollTo(g, 2000, 4000)
			save(&st)
			for i := range old {
				if !bytes.Equal(old[i], kept[i]) {
					t.Errorf("stream %d: the re-save wrote into the old array: %x, was %x", i, old[i], kept[i])
				}
				if bytes.Equal(held(&st)[i], kept[i]) {
					t.Errorf("stream %d did not move in 2000 cycles: the test checks nothing", i)
				}
			}

			dirty := GenState{Bursty: !st.Bursty, PCG: []byte("pcg:"), PhasePCG: []byte{1}, Next: -1, On: !st.On,
				PhaseEnds: -1, Script: true, Pos: 3, Rogue: !st.Rogue}
			save(&dirty)
			if !reflect.DeepEqual(dirty, st) {
				t.Errorf("saved into another kind's state:\n got  %+v\n want %+v", dirty, st)
			}

			clone := tc.mk()
			pollTo(clone, 0, 777)
			if err := clone.LoadState(st); err != nil {
				t.Fatal(err)
			}
			sameStream(t, tc.name, pollTo(g, 4000, 9000), pollTo(clone, 4000, 9000))
		})
	}
}

// TestGenStateIsZero pins IsZero: the zero GenState is zero, setting any one
// of its fields makes it non-zero, and what a Source saves, fresh or
// mid-stream, never is.
func TestGenStateIsZero(t *testing.T) {
	if !(&GenState{}).IsZero() {
		t.Error("the zero GenState is not zero")
	}
	one := map[string]GenState{
		"Bursty":    {Bursty: true},
		"PCG":       {PCG: []byte{0}},
		"PhasePCG":  {PhasePCG: []byte{0}},
		"Next":      {Next: 1},
		"On":        {On: true},
		"PhaseEnds": {PhaseEnds: 1},
		"Script":    {Script: true},
		"Pos":       {Pos: 1},
		"Rogue":     {Rogue: true},
	}
	if n := reflect.TypeOf(GenState{}).NumField(); n != len(one) {
		t.Fatalf("GenState has %d fields, the table sets %d", n, len(one))
	}
	for name, st := range one {
		if st.IsZero() {
			t.Errorf("%s set: IsZero", name)
		}
	}

	src := NewSource(3, NewUniform(topology.New(4, 2)), 0.5, 8, 11, 23)
	for _, to := range []int64{0, 1000} {
		pollTo(src, 0, to)
		var st GenState
		if err := src.SaveStateInto(&st); err != nil {
			t.Fatal(err)
		}
		if st.IsZero() {
			t.Errorf("a Source polled to cycle %d saves the zero GenState", to)
		}
	}
}
