package router

import (
	"testing"
	"testing/quick"
)

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
