package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/fault"
	"wormnet/internal/routing"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// freshTable is the oracle of the shape tests: the table buildCandTable makes
// now for cfg's network, with an algorithm instance nothing else has seen.
func freshTable(cfg Config) *candTable {
	topo := topology.New(cfg.K, cfg.N)
	return buildCandTable(topo, newAlgorithm(cfg.Routing, topo, cfg.VCs), cfg.VCs)
}

// TestShapeTableEqualsFreshBuild compares the cached table of every routing
// function on four networks and three channel counts with a fresh build, field
// by field (set ids included: they are handed out in first-seen order, which is
// why a snapshot's bytes do not depend on which of the two an engine read), and
// every pair's set with a direct routing call. The two dozen admissible shapes
// also walk the cache past its bound.
func TestShapeTableEqualsFreshBuild(t *testing.T) {
	nets := []struct{ k, n int }{{2, 2}, {4, 1}, {4, 2}, {8, 3}}
	shapesSeen := 0
	for _, routing := range []string{"tfar", "dor", "duato"} {
		for _, net := range nets {
			for vcs := 1; vcs <= 3; vcs++ {
				cfg := DefaultConfig()
				cfg.K, cfg.N, cfg.VCs, cfg.Routing = net.k, net.n, vcs, routing
				if cfg.validate() != nil {
					continue // dor below two channels on a ring, duato below three
				}
				shapesSeen++
				name := fmt.Sprintf("%s/%d-ary %d-cube/%d VCs", routing, net.k, net.n, vcs)
				e, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if e.cand != e.shape.cand || e.topo != e.shape.topo {
					t.Errorf("%s: a new engine does not read its shape", name)
				}
				if !reflect.DeepEqual(e.cand, freshTable(cfg)) {
					t.Errorf("%s: cached table differs from a fresh build", name)
				}
				if err := e.CheckReconfiguration(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				e.Close()
			}
		}
	}
	if shapesSeen <= maxShapes {
		t.Fatalf("only %d shapes built: the cache bound of %d was never reached", shapesSeen, maxShapes)
	}
	shapes.Lock()
	n := len(shapes.list)
	shapes.Unlock()
	if n > maxShapes {
		t.Errorf("cache holds %d shapes, bound is %d", n, maxShapes)
	}
}

// forgetShape drops key from the cache, so the next shapeOf of it is a miss.
func forgetShape(key shapeKey) {
	shapes.Lock()
	defer shapes.Unlock()
	kept := shapes.list[:0]
	for _, s := range shapes.list {
		if s.key != key {
			kept = append(kept, s)
		}
	}
	clear(shapes.list[len(kept):])
	shapes.list = kept
}

// TestConcurrentNewBuildsOneShape has 16 goroutines call New on a network the
// cache does not hold. All of them must come back with the same shape and the
// same table, and the cache must hold that key once: a shape builds under its
// own sync.Once, so one shape is one build. Meant for -race.
func TestConcurrentNewBuildsOneShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.K, cfg.N, cfg.VCs = 5, 2, 2 // no other test's network
	key := shapeKey{cfg.K, cfg.N, cfg.VCs, cfg.Routing}
	forgetShape(key)

	const callers = 16
	engines := make([]*Engine, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			engines[i], errs[i] = New(cfg)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		defer e.Close()
		if e.shape != engines[0].shape || e.cand != engines[0].cand || e.cand == nil {
			t.Errorf("caller %d: shape %p table %p, caller 0 has %p and %p",
				i, e.shape, e.cand, engines[0].shape, engines[0].cand)
		}
	}
	held := 0
	shapes.Lock()
	for _, s := range shapes.list {
		if s.key == key {
			held++
		}
	}
	shapes.Unlock()
	if held != 1 {
		t.Errorf("cache holds the key %d times, want once", held)
	}
	if !reflect.DeepEqual(engines[0].cand, freshTable(cfg)) {
		t.Error("concurrently built table differs from a fresh build")
	}
}

// TestFaultsNeverWriteTheSharedTable runs two flap storms — dozens of epoch
// flips, each re-deriving an engine's overlay — on two engines of one network
// in lockstep, under every routing function. At every flip of either engine it
// checks both engines' tables against direct routing calls, so one overlay
// writing storage the other reads would show, and it pins what a flip costs:
// the overlay is derived from the shape's healthy sets, so the flip itself
// calls the routing function not once. Under Duato a dead escape port leaves
// sets no healthy pair has, so the overlays grow sets of their own. Then it
// builds a fault-free engine of the same network: it reads the shape the first
// two started from, and that table still equals a fresh build.
func TestFaultsNeverWriteTheSharedTable(t *testing.T) {
	for _, name := range []string{"tfar", "dor", "duato"} {
		t.Run(name, func(t *testing.T) { faultsNeverWriteTheSharedTable(t, name) })
	}
}

// countingRouting counts the routing calls made through it.
type countingRouting struct {
	routing.Algorithm
	calls int
}

func (c *countingRouting) Candidates(cur, dst topology.NodeID, out []routing.Candidate) []routing.Candidate {
	c.calls++
	return c.Algorithm.Candidates(cur, dst, out)
}

func faultsNeverWriteTheSharedTable(t *testing.T, name string) {
	cfg := QuickConfig()
	cfg.Routing, cfg.Rate = name, 0.8
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2500, 500
	var engines [2]*Engine
	var counters [2]*countingRouting
	private, ownSets := 0, 0
	for i := range engines {
		sched, err := fault.Plan(topology.New(4, 2), fault.Profile{
			LinkFraction: 0.08, RouterFraction: 0.05, At: 400, Stagger: 300,
			TransientFraction: 1.0, RepairAfter: 250, FlapCount: 2, FlapPeriod: 700, Seed: 42 + uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		if engines[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		defer engines[i].Close()
		e := engines[i]
		counters[i] = &countingRouting{Algorithm: e.alg}
		e.alg = counters[i]
		e.SetReconfigHook(func(epoch uint64) {
			if n := counters[i].calls; n != 0 {
				t.Errorf("engine %d: epoch %d: the flip made %d routing calls", i, epoch, n)
			}
			if e.cand != e.shape.cand {
				private++
			}
			if len(e.cand.word) > len(e.shape.cand.word) {
				ownSets++
			}
			for j, other := range engines {
				if err := other.CheckReconfiguration(); err != nil {
					t.Errorf("engine %d at a flip of engine %d (epoch %d): %v", j, i, epoch, err)
				}
			}
			for _, c := range counters {
				c.calls = 0 // CheckReconfiguration's own calls
			}
		})
	}
	if engines[0].shape != engines[1].shape {
		t.Fatal("two engines of one network read different shapes")
	}
	for engines[0].Now() < cfg.TotalCycles() {
		engines[0].Step()
		engines[1].Step()
	}
	if private == 0 {
		t.Fatal("no flip left an engine on a table of its own; scenario is vacuous")
	}
	if name == "duato" && ownSets == 0 {
		t.Fatal("no flip gave an engine sets of its own; scenario is vacuous")
	}

	cfg.Faults = nil
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.cand != engines[0].shape.cand {
		t.Error("third engine of the shape does not read the first ones' shared table")
	}
	if !reflect.DeepEqual(b.cand, freshTable(cfg)) {
		t.Error("shared table differs from a fresh build after flap storms on other engines")
	}
}

// TestNewAllocs pins what building an engine of a cached shape allocates:
// arenas, the collector, the sharded runtime, a network's limiters and its
// generators — at most 150 objects, and the same count on a 4-ary as on an
// 8-ary 3-cube (64 and 512 nodes), whatever the limiter or the sources. ALO,
// its ablations and the no-limiter factory hand every node one stateless
// value; LF, DRIL and the Figure-2 probe carve their nodes from one array; the
// steady and the bursty sources sit by value in one. Only rogue and
// caller-supplied generators are still an object a node.
func TestNewAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	probe, _ := core.WrapProbe(core.NewALO())
	for _, row := range []struct {
		name  string
		f     core.Factory
		burst bool
	}{
		{"none", baseline.NewNone(), false},
		{"alo", core.NewALO(), false},
		{"alo-rule-a", core.NewRuleAOnly(), false},
		{"alo-rule-b", core.NewRuleBOnly(), false},
		{"alo-all-channels", core.NewAllChannels(), false},
		{"lf", baseline.NewLF(), false},
		{"dril", baseline.NewDRIL(), false},
		{"alo+probe", probe, false},
		{"none-bursty", baseline.NewNone(), true},
		{"dril-bursty", baseline.NewDRIL(), true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var counts [2]float64
			for i, k := range []int{4, 8} {
				cfg := DefaultConfig().WithLimiter(row.name, row.f)
				cfg.K = k
				if row.burst {
					cfg.Burst = traffic.BurstProfile{OnMean: 200, OffMean: 600}
				}
				build := func() {
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.Close()
				}
				build() // warm the shape cache and the runtime's first-use state
				build()
				counts[i] = allocsWithoutGC(5, build)
			}
			if counts[0] != counts[1] || counts[1] > 150 {
				t.Errorf("New on a warm cache: %.0f objects on the 4-ary 3-cube, %.0f on the 8-ary; want the same and at most 150",
					counts[0], counts[1])
			}
		})
	}
}

// TestNewFootprint bounds the bytes New allocates for DefaultConfig on a warm
// shape cache — the node array, the channel arenas, the status words and the
// collector, each channel stored once, output-VC ownership not at all — at the
// 711 192 measured plus 5 %: every engine a figure point, a farm worker or the
// explorer builds pays it.
func TestNewFootprint(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: the footprint is pinned on the plain build")
	}
	build := func() {
		e, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	build() // warm the shape cache and the runtime's first-use state
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	const ceiling = 711_192 * 105 / 100
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("New allocated %d bytes, ceiling %d", got, ceiling)
	}
}

// allocsWithoutGC is testing.AllocsPerRun with the collector off while it
// runs: a collection's own allocations would otherwise land in whichever count
// it happened to interrupt.
func allocsWithoutGC(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestFirstMessagesAllocs pins what a fresh engine's first messages cost: the
// pool fills by slabs, each one object (an array of 64 messages and nothing
// else), so 2 000 cycles at the knee allocate a fraction of an object per
// admitted message, not the message (120 objects measured for 41 129
// admissions, New's 38 included, against 144 while each slab also had a path
// array).
func TestFirstMessagesAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	cfg := DefaultConfig()
	cfg.Rate, cfg.WarmupCycles = 0.65, 0
	var admitted int64
	allocs := testing.AllocsPerRun(1, func() {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for e.Now() < 2000 {
			e.Step()
		}
		admitted = e.Collector().Result().Injected
	})
	if admitted < 10000 {
		t.Fatalf("only %d messages admitted; the run is not the knee", admitted)
	}
	if per := allocs / float64(admitted); per > 0.2 {
		t.Errorf("%.0f allocations for %d admitted messages: %.2f each, want at most 0.2", allocs, admitted, per)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.pool = slices.Grow(e.pool, 8*64) // the free list's own growth is not the slab's
	if n := allocsWithoutGC(4, e.newSlab); n != 1 {
		t.Errorf("a slab is %.0f objects, want 1", n)
	}
}
