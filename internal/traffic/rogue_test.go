package traffic

import "testing"

func TestRogueDeterminism(t *testing.T) {
	mk := func() *RogueSource {
		return NewRogueSource(2, 16, 5, 1.5, 4, 600, 250, 7, 99)
	}
	a, b := mk(), mk()
	var ga, gb []Generated
	for now := int64(0); now < 3000; now += 3 {
		ga = a.Poll(now, ga[:0])
		gb = b.Poll(now, gb[:0])
		if len(ga) != len(gb) {
			t.Fatalf("cycle %d: %d vs %d events", now, len(ga), len(gb))
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("cycle %d event %d: %+v vs %+v", now, i, ga[i], gb[i])
			}
		}
	}
}

// TestRogueStormTargeting pins the duty cycle: every message whose arrival
// falls in the ON window targets the hotspot, and the OFF window produces at
// least some non-hotspot destinations.
func TestRogueStormTargeting(t *testing.T) {
	const period, on = 600, 250
	s := NewRogueSource(2, 16, 5, 1.5, 4, period, on, 7, 99)
	var offWindowOther int
	prevAt := int64(-1)
	var batch []Generated
	for now := int64(0); now < 20000; now++ {
		at := s.NextAt()
		if at < prevAt {
			t.Fatalf("NextAt went backwards: %d after %d", at, prevAt)
		}
		prevAt = at
		batch = s.Poll(now, batch[:0])
		for _, g := range batch {
			// Every event Polled at cycle `now` arrived in (prev now, now], so
			// its nominal cycle is `now` exactly when polling every cycle.
			if now%period < on {
				if g.Dst != 5 {
					t.Fatalf("cycle %d (storm on): dst %d, want hotspot 5", now, g.Dst)
				}
			} else if g.Dst != 5 {
				offWindowOther++
			}
			if g.Dst == 2 {
				t.Fatalf("cycle %d: rogue sent to itself", now)
			}
		}
	}
	if offWindowOther == 0 {
		t.Error("no uniform traffic outside the storm window; duty cycle inert")
	}
}

// TestRogueAlwaysOn pins period 0 = permanent storm.
func TestRogueAlwaysOn(t *testing.T) {
	s := NewRogueSource(2, 16, 5, 2.0, 4, 0, 0, 1, 2)
	var batch []Generated
	for now := int64(0); now < 5000; now++ {
		batch = s.Poll(now, batch[:0])
		for _, g := range batch {
			if g.Dst != 5 {
				t.Fatalf("cycle %d: dst %d during permanent storm", now, g.Dst)
			}
		}
	}
}

// TestRogueHotspotSelfDest: a rogue placed on the hotspot node falls back to
// uniform destinations rather than sending to itself.
func TestRogueHotspotSelfDest(t *testing.T) {
	s := NewRogueSource(5, 16, 5, 2.0, 4, 0, 0, 1, 2)
	var batch []Generated
	seen := false
	for now := int64(0); now < 5000; now++ {
		batch = s.Poll(now, batch[:0])
		for _, g := range batch {
			seen = true
			if g.Dst == 5 {
				t.Fatalf("cycle %d: hotspot rogue sent to itself", now)
			}
		}
	}
	if !seen {
		t.Fatal("hotspot rogue generated nothing")
	}
}

func TestRogueStateRoundTrip(t *testing.T) {
	s := NewRogueSource(2, 16, 5, 1.5, 4, 600, 250, 7, 99)
	var batch []Generated
	for now := int64(0); now < 1000; now++ {
		batch = s.Poll(now, batch[:0])
	}
	var st GenState
	if err := s.SaveStateInto(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Rogue {
		t.Fatal("saved state not marked Rogue")
	}
	r := NewRogueSource(2, 16, 5, 1.5, 4, 600, 250, 0, 0) // different seeds
	if err := r.LoadState(st); err != nil {
		t.Fatal(err)
	}
	var gs, gr []Generated
	for now := int64(1000); now < 4000; now++ {
		gs = s.Poll(now, gs[:0])
		gr = r.Poll(now, gr[:0])
		if len(gs) != len(gr) {
			t.Fatalf("cycle %d: %d vs %d events after restore", now, len(gs), len(gr))
		}
		for i := range gs {
			if gs[i] != gr[i] {
				t.Fatalf("cycle %d event %d diverged after restore", now, i)
			}
		}
	}
	// Foreign state must be rejected in both directions.
	if err := r.LoadState(GenState{Bursty: true}); err == nil {
		t.Error("rogue source accepted bursty state")
	}
	plain := NewSource(2, &Uniform{nodes: 16}, 0.5, 4, 1, 2)
	if err := plain.LoadState(st); err == nil {
		t.Error("plain source accepted rogue state")
	}
	bs := NewBurstySource(2, &Uniform{nodes: 16}, 1.0, 4, BurstProfile{OnMean: 10, OffMean: 10}, 1, 2)
	if err := bs.LoadState(st); err == nil {
		t.Error("bursty source accepted rogue state")
	}
}

// TestRoguePanics pins constructor validation.
func TestRoguePanics(t *testing.T) {
	cases := map[string]func(){
		"zero-rate": func() { NewRogueSource(0, 16, 5, 0, 4, 0, 0, 1, 2) },
		"bad-len":   func() { NewRogueSource(0, 16, 5, 1, 0, 0, 0, 1, 2) },
		"bad-duty":  func() { NewRogueSource(0, 16, 5, 1, 4, 100, 200, 1, 2) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
