package modelcheck

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// hashSet is the committed set of canonical state hashes. The committer alone
// adds to it; any worker looks a hash up, without a lock. The hashes live in a
// slab of fixed chunks, in the order they were added; an open-addressed table
// holds their slab positions plus one, 4 bytes each (0 is an empty slot). The
// committer writes a hash into its chunk, publishes the chunk directory if the
// chunk is new, and only then stores the position into the table, so a reader
// that loads a position and then the directory finds its hash. A full table is
// copied into one twice its size, published whole; a reader still on the old
// table can only miss a hash added since, which costs it a pruning, never a
// wrong one.
type hashSet struct {
	table atomic.Pointer[[]atomic.Uint32]
	dir   atomic.Pointer[[][][32]byte] // the chunks; a full one stays where it is
	n     int
}

// maxVisited is how many hashes a 4-byte position plus one addresses.
const maxVisited = 1<<32 - 1

// The table starts at 16 slots and grows when three quarters full. The slab's
// chunks hold 16, 16, 32, … 2 048 hashes (chunk c ≥ 1 as many as the chunks
// before it), then maxChunk each: New allocates little, and at most one chunk
// is slack.
const (
	firstChunk  = 16
	maxChunk    = 4096
	smallChunks = 9 // the chunks before the first of maxChunk
)

func newHashSet() *hashSet {
	s := &hashSet{}
	t := make([]atomic.Uint32, 16)
	s.table.Store(&t)
	d := make([][][32]byte, 0, 4)
	s.dir.Store(&d)
	return s
}

// chunkOf returns the chunk holding slab position i and i's place in it.
func chunkOf(i int) (c, off int) {
	switch {
	case i < firstChunk:
		return 0, i
	case i < maxChunk:
		c = bits.Len(uint(i)) - bits.Len(firstChunk) + 1
		return c, i - chunkStart(c)
	default:
		return smallChunks - 1 + i/maxChunk, i % maxChunk
	}
}

// chunkStart is the slab position of chunk c's first hash, which is also the
// size of the slab up to chunk c.
func chunkStart(c int) int {
	switch {
	case c == 0:
		return 0
	case c < smallChunks:
		return firstChunk << (c - 1)
	default:
		return maxChunk * (c - smallChunks + 1)
	}
}

// slot is where h starts probing in a table of size mask+1: SHA-256 output is
// uniform, so its first word is index enough.
func slot(h *[32]byte, mask int) int { return int(binary.LittleEndian.Uint64(h[:8])) & mask }

// has reports whether h has been added (any goroutine).
func (s *hashSet) has(h *[32]byte) bool {
	t := *s.table.Load()
	mask := len(t) - 1
	for i := slot(h, mask); ; i = (i + 1) & mask {
		e := t[i].Load()
		if e == 0 {
			return false
		}
		c, off := chunkOf(int(e - 1))
		if (*s.dir.Load())[c][off] == *h {
			return true
		}
	}
}

// add inserts h, which must not be in the set yet (committer only). It panics
// when the set already holds as many hashes as a position addresses.
func (s *hashSet) add(h [32]byte) {
	if s.n >= maxVisited {
		panic(fmt.Sprintf("modelcheck: the visited set is full at %d hashes", s.n))
	}
	t := *s.table.Load()
	if 4*(s.n+1) > 3*len(t) {
		grown := make([]atomic.Uint32, 2*len(t))
		s.each(func(i int, h *[32]byte) { insert(grown, h, i) })
		s.table.Store(&grown)
		t = grown
	}
	c, off := chunkOf(s.n)
	d := *s.dir.Load()
	if c < len(d) {
		d[c][off] = h
	} else {
		grown := d
		if len(d) == cap(d) {
			grown = append(make([][][32]byte, 0, 2*cap(d)), d...)
		}
		grown = append(grown, make([][32]byte, chunkStart(c+1)-chunkStart(c)))
		grown[c][off] = h
		s.dir.Store(&grown)
		d = grown
	}
	insert(t, &d[c][off], s.n)
	s.n++
}

// insert stores slab position i, whose hash is h, into t.
func insert(t []atomic.Uint32, h *[32]byte, i int) {
	mask := len(t) - 1
	j := slot(h, mask)
	for t[j].Load() != 0 {
		j = (j + 1) & mask
	}
	t[j].Store(uint32(i + 1))
}

// len returns the number of hashes added.
func (s *hashSet) len() int { return s.n }

// bytes is the memory the set holds: its table and its chunks.
func (s *hashSet) bytes() int {
	return 4*len(*s.table.Load()) + 32*chunkStart(len(*s.dir.Load()))
}

// each calls fn with every hash and its slab position, in the order they were
// added (committer only).
func (s *hashSet) each(fn func(i int, h *[32]byte)) {
	i := 0
	for _, chunk := range *s.dir.Load() {
		for off := range chunk {
			if i == s.n {
				return
			}
			fn(i, &chunk[off])
			i++
		}
	}
}
