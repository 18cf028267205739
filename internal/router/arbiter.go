package router

import (
	"fmt"
	"math/bits"
)

// RoundRobin is a rotating-priority arbiter over n requesters. Each Grant
// call scans requesters starting one past the previous winner, so every
// requester is eventually served regardless of contention (strong fairness
// under persistent requests).
type RoundRobin struct {
	n    int32
	next int32
}

// NewRoundRobin returns an arbiter over n requesters. n must be positive.
func NewRoundRobin(n int) *RoundRobin {
	a := &RoundRobin{}
	a.Init(n)
	return a
}

// Init (re-)initialises a in place as an arbiter over n requesters, so
// arbiters can be stored by value in contiguous slices.
func (a *RoundRobin) Init(n int) {
	if n < 1 {
		panic("router: round-robin arbiter needs at least one requester")
	}
	*a = RoundRobin{n: int32(n)}
}

// Grant returns the index of the first requester i (in rotating order) for
// which want(i) is true, advancing the priority pointer past the winner.
// It returns -1 if no requester wants a grant.
func (a *RoundRobin) Grant(want func(int) bool) int {
	for off := 0; off < a.N(); off++ {
		i := (a.Next() + off) % a.N()
		if want(i) {
			a.Advance(i)
			return i
		}
	}
	return -1
}

// N returns the number of requesters.
func (a *RoundRobin) N() int { return int(a.n) }

// Next returns the rotating priority pointer: the requester index that
// currently has top priority (snapshots save it; SetNext restores it).
func (a *RoundRobin) Next() int { return int(a.next) }

// Advance moves the priority pointer one past winner, exactly as a grant
// does. winner must be a valid requester index. The wrap is a compare
// rather than a modulo: this runs once per granted flit.
func (a *RoundRobin) Advance(winner int) {
	a.next = int32(winner) + 1
	if a.next == a.n {
		a.next = 0
	}
}

// SetNext restores the rotating priority pointer (snapshot support). It
// panics on an out-of-range index, mirroring Init's validation.
func (a *RoundRobin) SetNext(i int) {
	if i < 0 || i >= a.N() {
		panic(fmt.Sprintf("router: round-robin pointer %d out of range [0,%d)", i, a.n))
	}
	a.next = int32(i)
}

// GrantMask is Grant over a bit mask of requesters (bit i = requester i
// wants; n <= 64 and no bit at or above n): the first set bit at or after the
// pointer, else the first set bit. It returns -1, pointer unmoved, on an
// empty mask.
func (a *RoundRobin) GrantMask(want uint64) int {
	if want == 0 {
		return -1
	}
	w := want &^ (1<<uint(a.next) - 1)
	if w == 0 {
		w = want
	}
	i := bits.TrailingZeros64(w)
	a.Advance(i)
	return i
}
