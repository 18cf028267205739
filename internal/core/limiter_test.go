package core

import (
	"testing"

	"wormnet/internal/topology"
)

// fakeView is a hand-built ChannelView for predicate tests.
type fakeView struct {
	useful   []topology.Port
	free     map[topology.Port]int
	vcs      int
	ports    int
	queued   int
	headWait int64
}

func (f *fakeView) HeadWait() int64 { return f.headWait }

func (f *fakeView) UsefulPorts(topology.NodeID) []topology.Port { return f.useful }
func (f *fakeView) FreeVCs(p topology.Port) int                 { return f.free[p] }
func (f *fakeView) VCs() int                                    { return f.vcs }
func (f *fakeView) NumPorts() int                               { return f.ports }
func (f *fakeView) QueuedMessages() int                         { return f.queued }

func view(vcs, ports int, useful []topology.Port, free map[topology.Port]int) *fakeView {
	return &fakeView{useful: useful, free: free, vcs: vcs, ports: ports}
}

func TestALOPredicate(t *testing.T) {
	alo := NewALO()(topology.New(8, 3), 3)[0]
	if alo.Name() != "alo" {
		t.Fatalf("name %q", alo.Name())
	}
	cases := []struct {
		name  string
		v     *fakeView
		allow bool
	}{
		{
			// Paper's uniform example: all 6 channels useful, each with
			// >=1 free VC -> rule (a) permits.
			name: "all partially free",
			v: view(3, 6, []topology.Port{0, 1, 2, 3, 4, 5},
				map[topology.Port]int{0: 1, 1: 2, 2: 1, 3: 3, 4: 1, 5: 2}),
			allow: true,
		},
		{
			// One useful channel exhausted, none completely free -> forbid.
			name: "one exhausted",
			v: view(3, 6, []topology.Port{0, 1, 2, 3, 4, 5},
				map[topology.Port]int{0: 0, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}),
			allow: false,
		},
		{
			// One useful channel exhausted but another completely free ->
			// rule (b) permits.
			name: "rule b rescues",
			v: view(3, 6, []topology.Port{0, 1, 2, 3, 4, 5},
				map[topology.Port]int{0: 0, 1: 3, 2: 1, 3: 2, 4: 1, 5: 2}),
			allow: true,
		},
		{
			// Butterfly-style: only 2 useful channels; one busy one full.
			name: "subset busy, other completely free",
			v: view(3, 6, []topology.Port{1, 4},
				map[topology.Port]int{0: 0, 1: 0, 2: 0, 3: 0, 4: 3, 5: 0}),
			allow: true,
		},
		{
			// Subset with all channels exhausted -> forbid, even though a
			// non-useful channel is completely free.
			name: "non-useful free channel ignored",
			v: view(3, 6, []topology.Port{1, 4},
				map[topology.Port]int{0: 3, 1: 0, 2: 3, 3: 3, 4: 0, 5: 3}),
			allow: false,
		},
		{
			// All useful channels exhausted.
			name: "everything busy",
			v: view(3, 6, []topology.Port{0, 1, 2, 3, 4, 5},
				map[topology.Port]int{}),
			allow: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := alo.Allow(c.v, 1); got != c.allow {
				t.Errorf("Allow=%v want %v", got, c.allow)
			}
		})
	}
}

func TestALOEmptyUsefulSet(t *testing.T) {
	// A message with no useful ports cannot occur (dst != src), but the
	// predicate must degrade safely: rule (a) vacuously true.
	alo := ALO
	if !alo.Allow(view(3, 6, nil, nil), 1) {
		t.Error("empty useful set should permit (vacuous rule a)")
	}
}

func TestRuleAblations(t *testing.T) {
	tp := topology.New(8, 3)
	a := NewRuleAOnly()(tp, 3)[0]
	b := NewRuleBOnly()(tp, 3)[0]
	all := NewAllChannels()(tp, 3)[0]
	if a.Name() != "alo-rule-a" || b.Name() != "alo-rule-b" || all.Name() != "alo-all-channels" {
		t.Fatal("names")
	}

	// One useful channel exhausted, another completely free.
	v := view(3, 6, []topology.Port{1, 4},
		map[topology.Port]int{1: 0, 4: 3})
	if a.Allow(v, 1) {
		t.Error("rule-a-only must forbid when a useful channel is exhausted")
	}
	if !b.Allow(v, 1) {
		t.Error("rule-b-only must permit when a useful channel is completely free")
	}

	// All useful channels partially free, none completely free.
	v = view(3, 6, []topology.Port{1, 4},
		map[topology.Port]int{1: 1, 4: 2})
	if !a.Allow(v, 1) {
		t.Error("rule-a-only must permit when all useful channels are partially free")
	}
	if b.Allow(v, 1) {
		t.Error("rule-b-only must forbid when no useful channel is completely free")
	}

	// AllChannels looks at every port: a distant exhausted channel vetoes
	// even though the useful ones are fine.
	v = view(3, 6, []topology.Port{1},
		map[topology.Port]int{0: 0, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1})
	if all.Allow(v, 1) {
		t.Error("all-channels variant should veto on any exhausted port")
	}
	// ... and a completely free channel anywhere rescues it.
	v = view(3, 6, []topology.Port{1},
		map[topology.Port]int{0: 0, 1: 2, 2: 3, 3: 1, 4: 1, 5: 1})
	if !all.Allow(v, 1) {
		t.Error("all-channels variant should permit via any completely free port")
	}
}

func TestProbeCountsConditions(t *testing.T) {
	tp := topology.New(8, 3)
	inner := NewALO()
	factory, stats := WrapProbe(inner)
	lim := factory(tp, 3)[0]
	if lim.Name() != "alo+probe" {
		t.Fatalf("name %q", lim.Name())
	}

	// Decision 1: a holds, b doesn't.
	lim.Allow(view(3, 6, []topology.Port{0, 1}, map[topology.Port]int{0: 1, 1: 1}), 1)
	// Decision 2: b holds, a doesn't.
	lim.Allow(view(3, 6, []topology.Port{0, 1}, map[topology.Port]int{0: 0, 1: 3}), 1)
	// Decision 3: neither holds.
	lim.Allow(view(3, 6, []topology.Port{0, 1}, map[topology.Port]int{0: 0, 1: 1}), 1)
	// Decision 4: both hold.
	lim.Allow(view(3, 6, []topology.Port{0, 1}, map[topology.Port]int{0: 3, 1: 1}), 1)

	if stats.Total() != 4 {
		t.Fatalf("Total=%d", stats.Total())
	}
	if got := stats.PercentA(); got != 50 {
		t.Errorf("PercentA=%v want 50", got)
	}
	if got := stats.PercentB(); got != 50 {
		t.Errorf("PercentB=%v want 50", got)
	}
	if got := stats.PercentEither(); got != 75 {
		t.Errorf("PercentEither=%v want 75", got)
	}
}

func TestProbeEmptyStats(t *testing.T) {
	var s ProbeStats
	if s.PercentA() != 0 || s.PercentB() != 0 || s.PercentEither() != 0 {
		t.Error("empty stats must report 0%")
	}
}

// tickingLimiter records Tick calls to verify probe forwarding.
type tickingLimiter struct {
	ticks int
}

func (l *tickingLimiter) Allow(ChannelView, topology.NodeID) bool { return true }
func (l *tickingLimiter) Name() string                            { return "ticking" }
func (l *tickingLimiter) Tick(ChannelView, int64)                 { l.ticks++ }

func TestProbeForwardsTick(t *testing.T) {
	tp := topology.New(8, 3)
	inner := &tickingLimiter{}
	factory, _ := WrapProbe(Shared(inner))
	lim := factory(tp, 3)[0]
	obs, ok := lim.(CycleObserver)
	if !ok {
		t.Fatal("probe must implement CycleObserver")
	}
	obs.Tick(view(3, 6, nil, nil), 1)
	obs.Tick(view(3, 6, nil, nil), 2)
	if inner.ticks != 2 {
		t.Errorf("inner ticks=%d want 2", inner.ticks)
	}
	// Wrapping a non-observer inner must not panic on Tick.
	factory2, _ := WrapProbe(NewALO())
	factory2(tp, 3)[0].(CycleObserver).Tick(view(3, 6, nil, nil), 1)
}

func TestProbeDelegates(t *testing.T) {
	tp := topology.New(8, 3)
	factory, _ := WrapProbe(NewRuleBOnly())
	lim := factory(tp, 3)[0]
	// Rule b fails here, so the wrapped decision must be false even though
	// rule a holds.
	v := view(3, 6, []topology.Port{0}, map[topology.Port]int{0: 1})
	if lim.Allow(v, 1) {
		t.Error("probe must delegate the decision to the inner limiter")
	}
}

// TestFactoriesBuildANetwork checks the two factory builders: PerNode calls
// its constructor once per node, in node order, and Shared hands every node
// one value; and that WrapProbe keeps the inner limiters' order, giving each
// node a wrapper of its own around them.
func TestFactoriesBuildANetwork(t *testing.T) {
	tp := topology.New(4, 2)
	var order []topology.NodeID
	per := PerNode(func(node topology.NodeID, _ *topology.Torus, vcs int) Limiter {
		order = append(order, node)
		return Rules{A: vcs == 3, B: true}
	})
	ls := per(tp, 3)
	if len(ls) != tp.Nodes() || len(order) != tp.Nodes() {
		t.Fatalf("PerNode built %d limiters in %d calls for %d nodes", len(ls), len(order), tp.Nodes())
	}
	for i, n := range order {
		if n != topology.NodeID(i) || ls[i] != ALO {
			t.Fatalf("call %d built node %d's limiter %v", i, n, ls[i])
		}
	}
	inner := &tickingLimiter{}
	shared := Shared(inner)(tp, 3)
	wrapped, _ := WrapProbe(Shared(inner))
	probes := wrapped(tp, 3)
	for i := range shared {
		if shared[i] != Limiter(inner) {
			t.Fatalf("Shared gave node %d %v", i, shared[i])
		}
		if p := probes[i].(*probe); p.inner != Limiter(inner) || (i > 0 && probes[i] == probes[0]) {
			t.Fatalf("node %d's probe wraps %v, or is node 0's", i, p.inner)
		}
	}
}
