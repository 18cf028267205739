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
// that was never added; afterwards each lists every hash once, in the order added.
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
	listed := 0
	s.each(func(i int, h *[32]byte) {
		if i != listed || *h != hash(i) {
			t.Fatalf("each listed hash %d at position %d, want the hashes in the order added", listed, i)
		}
		listed++
	})
	if s.len() != n || listed != n {
		t.Fatalf("len %d, each listed %d hashes, want %d", s.len(), listed, n)
	}
}

// TestVisitedBytesPerState pins what the committed set costs a hash: its 32
// bytes in a slab chunk, a 4-byte position in a table at most three quarters
// full, and at most one chunk of slack. On the CI-pinned exhaustion that is
// at most 42 bytes (62.3 while the table held 8-byte pointers and grew at
// half full); on synthetic sets, at most 45 at every size from 65 536 to 2 M
// hashes, the worst right after the table doubles. The bytes are the set's
// own count (RunStats.VisitedBytes), checked here against the chunks and the
// table it holds.
func TestVisitedBytesPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("a full exhaustion and a 2 M-hash set")
	}
	if raceEnabled() {
		t.Skip("the race detector multiplies the 2 M-hash set's memory; TestHashSetReadsWhileAdding is the set under it")
	}
	x, err := New(twoWormSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 18921 {
		t.Fatalf("exhausted %d states, pinned 18921", rep.States)
	}
	perState := float64(x.RunStats().VisitedBytes) / float64(rep.States)
	t.Logf("pinned model: %d bytes, %.1f a state", x.RunStats().VisitedBytes, perState)
	if perState > 42 {
		t.Errorf("the pinned exhaustion's visited set costs %.1f bytes a state, ceiling 42", perState)
	}

	const lo, hi = 65536, 2 << 20
	s := newHashSet()
	var h [32]byte
	var z uint64 // a splitmix64 sequence: uniform, as SHA-256 output is, and cheaper
	worst, worstAt := 0.0, 0
	for n := 1; n <= hi; n++ {
		for w := 0; w < 4; w++ {
			z += 0x9e3779b97f4a7c15
			v := (z ^ z>>30) * 0xbf58476d1ce4e5b9
			v = (v ^ v>>27) * 0x94d049bb133111eb
			binary.LittleEndian.PutUint64(h[8*w:], v^v>>31)
		}
		s.add(h)
		if n < lo {
			continue
		}
		if b := float64(s.bytes()) / float64(n); b > worst {
			worst, worstAt = b, n
		}
	}
	held := 4 * len(*s.table.Load())
	for _, chunk := range *s.dir.Load() {
		held += 32 * len(chunk)
	}
	if held != s.bytes() {
		t.Fatalf("the set holds %d bytes of table and chunks, counts %d", held, s.bytes())
	}
	t.Logf("synthetic sets: at most %.1f bytes a hash (at %d hashes)", worst, worstAt)
	if worst > 45 {
		t.Errorf("a set of %d hashes costs %.1f bytes a hash, ceiling 45", worstAt, worst)
	}
}

// TestHashSetRefusesPastItsIndex: a set that holds as many hashes as a 4-byte
// position addresses panics on the next add instead of wrapping a position.
func TestHashSetRefusesPastItsIndex(t *testing.T) {
	s := newHashSet()
	s.n = maxVisited
	defer func() {
		if recover() == nil {
			t.Fatal("an add past the last position did not panic")
		}
	}()
	s.add([32]byte{1})
}
