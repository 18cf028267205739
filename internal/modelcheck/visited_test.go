package modelcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHashSetReadsWhileAdding is the committed set's contract: while one
// goroutine adds hashes (growing the table many times over), readers on other
// goroutines find every hash whose add finished before they looked and none
// that was never added; afterwards each lists every hash once.
func TestHashSetReadsWhileAdding(t *testing.T) {
	const n = 20000
	hash := func(i int) [32]byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		return sha256.Sum256(b[:])
	}
	s := newHashSet()
	var added atomic.Int64 // hashes 0..added-1 are in s
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; added.Load() < n; k++ {
				if c := added.Load(); c > 0 {
					if h := hash(int(c-1) - k%int(c)); !s.has(&h) {
						t.Errorf("a hash added before the lookup is missing")
						return
					}
				}
				if h := hash(n + k); s.has(&h) {
					t.Errorf("a hash never added is found")
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		s.add(hash(i))
		added.Store(int64(i + 1))
	}
	wg.Wait()
	seen := make(map[[32]byte]int)
	s.each(func(h [32]byte) { seen[h]++ })
	if s.len() != n || len(seen) != n {
		t.Fatalf("len %d, each listed %d distinct hashes, want %d", s.len(), len(seen), n)
	}
	for i := 0; i < n; i++ {
		if seen[hash(i)] != 1 {
			t.Fatalf("hash %d listed %d times", i, seen[hash(i)])
		}
	}
}
