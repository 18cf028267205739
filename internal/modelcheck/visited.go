package modelcheck

import (
	"encoding/binary"
	"sync/atomic"
)

// hashSet is the committed set of canonical state hashes. The committer alone
// adds to it; any worker looks a hash up, without a lock: a hash is written
// into slab storage before its pointer is published into an open-addressed
// table, and a full table is copied into one twice its size, published whole.
// A reader still on the old table can only miss a hash added since, which
// costs it a pruning, never a wrong one.
type hashSet struct {
	table atomic.Pointer[[]atomic.Pointer[[32]byte]]
	n     int
	slab  [][32]byte // the chunk hashes are written into; a full one stays where it is
}

// The table starts at 16 slots and the first slab chunk at 16 hashes, each next
// chunk as many as the set holds, up to maxChunk: New allocates little, a long
// run few chunks.
const maxChunk = 4096

func newHashSet() *hashSet {
	s := &hashSet{}
	t := make([]atomic.Pointer[[32]byte], 16)
	s.table.Store(&t)
	return s
}

// slot is where h starts probing in a table of size mask+1: SHA-256 output is
// uniform, so its first word is index enough.
func slot(h *[32]byte, mask int) int { return int(binary.LittleEndian.Uint64(h[:8])) & mask }

// has reports whether h has been added (any goroutine).
func (s *hashSet) has(h *[32]byte) bool {
	t := *s.table.Load()
	mask := len(t) - 1
	for i := slot(h, mask); ; i = (i + 1) & mask {
		p := t[i].Load()
		if p == nil {
			return false
		}
		if *p == *h {
			return true
		}
	}
}

// add inserts h, which must not be in the set yet (committer only).
func (s *hashSet) add(h [32]byte) {
	t := *s.table.Load()
	if 2*(s.n+1) > len(t) {
		grown := make([]atomic.Pointer[[32]byte], 2*len(t))
		for i := range t {
			if p := t[i].Load(); p != nil {
				insert(grown, p)
			}
		}
		s.table.Store(&grown)
		t = grown
	}
	if len(s.slab) == cap(s.slab) {
		s.slab = make([][32]byte, 0, min(max(s.n, 16), maxChunk))
	}
	s.slab = append(s.slab, h)
	insert(t, &s.slab[len(s.slab)-1])
	s.n++
}

func insert(t []atomic.Pointer[[32]byte], p *[32]byte) {
	mask := len(t) - 1
	i := slot(p, mask)
	for t[i].Load() != nil {
		i = (i + 1) & mask
	}
	t[i].Store(p)
}

// len returns the number of hashes added.
func (s *hashSet) len() int { return s.n }

// each calls fn with every hash, in no particular order (committer only).
func (s *hashSet) each(fn func([32]byte)) {
	t := *s.table.Load()
	for i := range t {
		if h := t[i].Load(); h != nil {
			fn(*h)
		}
	}
}
