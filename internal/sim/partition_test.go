package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// TestPartition is the table test of the pure boundary computation: the
// ranges are contiguous, cover [0, n) and are never empty; interior
// boundaries sit on multiples of the alignment unit whenever that keeps
// every range non-empty, and fall back to the plain i*n/s split when it
// would not.
func TestPartition(t *testing.T) {
	cases := []struct {
		n, shards, unit int
		want            []int
	}{
		{n: 512, shards: 1, unit: 8, want: []int{0, 512}},
		{n: 512, shards: 0, unit: 8, want: []int{0, 512}}, // Workers unset
		{n: 512, shards: 2, unit: 8, want: []int{0, 256, 512}},
		{n: 512, shards: 3, unit: 8, want: []int{0, 168, 344, 512}},         // 170→168, 341→344
		{n: 64, shards: 3, unit: 4, want: []int{0, 20, 44, 64}},             // 21→20, 42→44
		{n: 16, shards: 4, unit: 4, want: []int{0, 4, 8, 12, 16}},           // already aligned
		{n: 16, shards: 7, unit: 4, want: []int{0, 2, 4, 6, 9, 11, 13, 16}}, // rounding would empty shards
		{n: 16, shards: 3, unit: 8, want: []int{0, 5, 10, 16}},              // 5→8 and 10→8 would collide
		{n: 4, shards: 1000, unit: 4, want: []int{0, 1, 2, 3, 4}},           // clamped to one node per shard
		{n: 10, shards: 3, unit: 1, want: []int{0, 3, 6, 10}},               // unit 1: plain split is aligned
		{n: 9, shards: 2, unit: 8, want: []int{0, 8, 9}},                    // 4→8
		{n: 8, shards: 2, unit: 8, want: []int{0, 4, 8}},                    // 4→8 would empty the last shard
	}
	for _, c := range cases {
		got := partition(c.n, c.shards, c.unit)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("partition(%d, %d, %d) = %v, want %v", c.n, c.shards, c.unit, got, c.want)
		}
	}
	// The properties, over every small input.
	for n := 1; n <= 40; n++ {
		for shards := 0; shards <= n+2; shards++ {
			for _, unit := range []int{1, 2, 4, 8} {
				b := partition(n, shards, unit)
				label := fmt.Sprintf("partition(%d, %d, %d) = %v", n, shards, unit, b)
				if want := max(1, min(shards, n)) + 1; len(b) != want {
					t.Fatalf("%s: %d boundaries, want %d", label, len(b), want)
				}
				if b[0] != 0 || b[len(b)-1] != n {
					t.Fatalf("%s: does not cover [0, %d)", label, n)
				}
				aligned := true
				for i := 1; i < len(b); i++ {
					if b[i] <= b[i-1] {
						t.Fatalf("%s: range %d is empty", label, i-1)
					}
					if i < len(b)-1 && b[i]%unit != 0 {
						aligned = false
					}
				}
				if !aligned {
					for i := range b {
						if b[i] != i*n/(len(b)-1) {
							t.Fatalf("%s: neither aligned nor the plain split", label)
						}
					}
				}
			}
		}
	}
}

// boundarySets returns the partitions TestAnyPartitionSameRun drives an
// n-node engine over: first two hand-built ones — every node its own shard,
// and one with one-node shards {0} and {5}, not neighbours in the 4-ary
// 2-cube, so no ring joins that shard pair — then seeded random sets of
// two to n shards.
func boundarySets(n, count int) [][]int {
	all := make([]int, n+1)
	for i := range all {
		all[i] = i
	}
	sets := [][]int{all, {0, 1, 5, 6, n}}
	rng := rand.New(rand.NewSource(13))
	for len(sets) < count {
		b := []int{0, n}
		for _, c := range rng.Perm(n - 1)[:1+rng.Intn(n-1)] { // distinct interior boundaries
			b = append(b, c+1)
		}
		sort.Ints(b)
		sets = append(sets, b)
	}
	return sets
}

// TestAnyPartitionSameRun is the partition-independence property: an engine
// built over any shard boundaries — not just the ones partition picks —
// reproduces the recorded serial reference on the worker pool, with one P
// (explicit bounds start the pool where New would build one shard) and with
// two. The two rows keep every commit point busy: kills, retries, repairs
// and watermark-predicted recoveries (faults-storm), rogue injectors and
// per-class accounting (adversarial). The hand-built sets run on both rows,
// the random ones on alternating rows.
func TestAnyPartitionSameRun(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)

	ref := serialReference(t)
	count := 20
	if testing.Short() {
		count = 6
	}
	rows := []string{"faults-storm", "adversarial"}
	cfg := equivalenceConfigs()
	for i, bounds := range boundarySets(16, count) {
		for r, row := range rows {
			if i >= 2 && r != i%2 {
				continue
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("%s bounds=%v GOMAXPROCS=%d", row, bounds, procs)
				e, err := New(cfg[row])
				if err != nil {
					t.Fatal(err)
				}
				e.par = newParRuntime(e, bounds)
				if got := len(e.par.workers); got != len(bounds)-2 {
					t.Fatalf("%s: %d workers, want one per shard but the caller's", label, got)
				}
				finishReference(t, label, e, &eventTap{}, ref[row])
				e.Close()
			}
		}
	}
}
