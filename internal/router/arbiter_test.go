package router

import (
	"testing"
	"testing/quick"
)

func TestGrantFromBasic(t *testing.T) {
	a := NewRoundRobin(8)
	always := func(int32) bool { return true }

	// Pointer starts at 0: nearest candidate at-or-after 0 wins.
	if g := a.GrantFrom([]int32{5, 2, 7}, always); g != 2 {
		t.Fatalf("granted %d want 2", g)
	}
	// Pointer advanced to 3: now 5 is nearest.
	if g := a.GrantFrom([]int32{5, 2, 7}, always); g != 5 {
		t.Fatalf("granted %d want 5", g)
	}
	// Pointer at 6: 7 is nearest, 2 wraps further.
	if g := a.GrantFrom([]int32{5, 2, 7}, always); g != 7 {
		t.Fatalf("granted %d want 7", g)
	}
	// Pointer at 0 again (wrapped).
	if g := a.GrantFrom([]int32{5, 2, 7}, always); g != 2 {
		t.Fatalf("granted %d want 2", g)
	}
}

func TestGrantFromFiltersAndEmpty(t *testing.T) {
	a := NewRoundRobin(4)
	if g := a.GrantFrom(nil, func(int32) bool { return true }); g != -1 {
		t.Fatalf("empty candidates granted %d", g)
	}
	only3 := func(c int32) bool { return c == 3 }
	if g := a.GrantFrom([]int32{0, 1, 3}, only3); g != 3 {
		t.Fatalf("granted %d want 3", g)
	}
	none := func(int32) bool { return false }
	if g := a.GrantFrom([]int32{0, 1, 2}, none); g != -1 {
		t.Fatalf("granted %d want -1", g)
	}
}

func TestGrantFromPointerOnlyAdvancesOnGrant(t *testing.T) {
	a := NewRoundRobin(4)
	none := func(int32) bool { return false }
	always := func(int32) bool { return true }
	a.GrantFrom([]int32{1, 2}, none) // no grant: pointer stays at 0
	if g := a.GrantFrom([]int32{1, 3}, always); g != 1 {
		t.Fatalf("granted %d want 1 (pointer must not move on failed grants)", g)
	}
}

// Property: under persistent identical candidate sets, GrantFrom serves all
// candidates equally (rotational fairness), matching Grant's behaviour.
func TestGrantFromFairness(t *testing.T) {
	f := func(mask uint8) bool {
		var cands []int32
		for i := int32(0); i < 8; i++ {
			if mask&(1<<i) != 0 {
				cands = append(cands, i)
			}
		}
		a := NewRoundRobin(8)
		always := func(int32) bool { return true }
		if len(cands) == 0 {
			return a.GrantFrom(cands, always) == -1
		}
		counts := map[int32]int{}
		for i := 0; i < len(cands)*6; i++ {
			g := a.GrantFrom(cands, always)
			if g < 0 {
				return false
			}
			counts[g]++
		}
		for _, c := range cands {
			if counts[c] != 6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GrantFrom always returns a candidate that passes the filter and
// is nearest in rotating order.
func TestGrantFromNearest(t *testing.T) {
	f := func(mask uint8, seed uint8) bool {
		var cands []int32
		for i := int32(0); i < 8; i++ {
			if mask&(1<<i) != 0 {
				cands = append(cands, i)
			}
		}
		a := NewRoundRobin(8)
		// Advance the pointer to a pseudo-random position.
		for i := 0; i < int(seed%8); i++ {
			a.Grant(func(int) bool { return true })
		}
		ptr := a.Next()
		always := func(int32) bool { return true }
		g := a.GrantFrom(cands, always)
		if len(cands) == 0 {
			return g == -1
		}
		best := cands[0]
		bestDist := (int(best) - ptr + 8) % 8
		for _, c := range cands[1:] {
			if d := (int(c) - ptr + 8) % 8; d < bestDist {
				best, bestDist = c, d
			}
		}
		return g == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GrantMask is Grant over a bit mask — same winner, same pointer
// afterwards, -1 and an unmoved pointer on an empty mask — for every width up
// to the 64 requesters a word holds (where 1<<n itself overflows).
func TestGrantMaskMatchesGrant(t *testing.T) {
	f := func(mask uint64, nSeed, ptrSeed uint8) bool {
		n := int(nSeed)%64 + 1
		if nSeed%5 == 0 {
			n = 64
		}
		if n < 64 {
			mask &= 1<<uint(n) - 1
		}
		byMask, byFunc := NewRoundRobin(n), NewRoundRobin(n)
		byMask.SetNext(int(ptrSeed) % n)
		byFunc.SetNext(int(ptrSeed) % n)
		for i := 0; i < 3; i++ { // the pointer the first grant leaves feeds the next
			got := byMask.GrantMask(mask)
			want := byFunc.Grant(func(i int) bool { return mask>>uint(i)&1 != 0 })
			if got != want || byMask.Next() != byFunc.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	a := NewRoundRobin(64)
	a.SetNext(63)
	if g := a.GrantMask(1<<63 | 1); g != 63 || a.Next() != 0 {
		t.Errorf("top bit at the pointer: granted %d, pointer %d", g, a.Next())
	}
	if g := a.GrantMask(0); g != -1 || a.Next() != 0 {
		t.Errorf("empty mask: granted %d, pointer %d", g, a.Next())
	}
}
