package baseline

import (
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wormnet/internal/core"
	"wormnet/internal/topology"
)

// fakeView mirrors the test double used in internal/core.
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

func allFree(ports, vcs int) map[topology.Port]int {
	m := map[topology.Port]int{}
	for p := 0; p < ports; p++ {
		m[topology.Port(p)] = vcs
	}
	return m
}

func TestNone(t *testing.T) {
	lim := NewNone()(topology.New(8, 3), 3)[0]
	if lim.Name() != "none" {
		t.Fatal("name")
	}
	v := &fakeView{vcs: 3, ports: 6, free: map[topology.Port]int{}} // everything busy
	if !lim.Allow(v, 1) {
		t.Error("None must always allow")
	}
}

func TestLFAllowsWhenIdle(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewLF()(tp, 3)[0]
	if lim.Name() != "lf" {
		t.Fatal("name")
	}
	v := &fakeView{
		useful: []topology.Port{0, 2, 4},
		free:   allFree(6, 3),
		vcs:    3, ports: 6,
	}
	if !lim.Allow(v, 1) {
		t.Error("LF must allow on an idle node")
	}
}

func TestLFThrottlesWhenBusy(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewLF()(tp, 3)[0]
	// 3 useful ports -> estimate ~3 useful channels -> threshold
	// ~1.25*3*3 = 11.25 busy channels. With all 18 channels busy the node
	// must throttle.
	v := &fakeView{
		useful: []topology.Port{0, 2, 4},
		free:   map[topology.Port]int{}, // all busy
		vcs:    3, ports: 6,
	}
	if lim.Allow(v, 1) {
		t.Error("LF must throttle a fully busy node")
	}
}

func TestLFAdaptsToPattern(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewLF()(tp, 3)[0].(*LF)
	// Butterfly-like traffic: only 2 useful ports. After enough samples the
	// threshold drops to ~1.25*2*3 = 7.5.
	busy10 := map[topology.Port]int{ // 10 busy of 18: free 8
		0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1,
	}
	v := &fakeView{useful: []topology.Port{0, 3}, free: busy10, vcs: 3, ports: 6}
	var last bool
	for i := 0; i < 200; i++ {
		last = lim.Allow(v, 1)
	}
	if last {
		t.Error("LF should throttle 10 busy channels under a 2-port pattern")
	}
	// Uniform-like traffic with 6 useful ports: threshold ~22.5 (clamped to
	// 18), so the same busy level passes.
	lim2 := NewLF()(tp, 3)[0].(*LF)
	v2 := &fakeView{useful: []topology.Port{0, 1, 2, 3, 4, 5}, free: busy10, vcs: 3, ports: 6}
	var ok bool
	for i := 0; i < 200; i++ {
		ok = lim2.Allow(v2, 1)
	}
	if !ok {
		t.Error("LF should pass 10 busy channels under a 6-port pattern")
	}
}

func TestDRILStartsUnrestricted(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewDRIL()(tp, 3)[0].(*DRIL)
	if lim.Name() != "dril" {
		t.Fatal("name")
	}
	v := &fakeView{vcs: 3, ports: 6, free: map[topology.Port]int{}}
	if !lim.Allow(v, 1) {
		t.Error("untriggered DRIL must allow everything")
	}
	if _, trig := lim.Threshold(); trig {
		t.Error("must start untriggered")
	}
}

func TestDRILTriggersOnPersistentQueue(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewDRIL()(tp, 3)[0].(*DRIL)
	// 12 of 18 channels busy at trigger time.
	v := &fakeView{
		vcs: 3, ports: 6, queued: drilQueueTrigger,
		free: map[topology.Port]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
	}
	for c := int64(0); c < drilPersistCycles; c++ {
		lim.Tick(v, c)
	}
	th, trig := lim.Threshold()
	if !trig {
		t.Fatal("DRIL did not trigger after persistent queue growth")
	}
	want := int(drilThresholdScale * 12)
	if th != want {
		t.Errorf("threshold %d want %d", th, want)
	}
	// Now more channels busy than the threshold -> throttle.
	if lim.Allow(v, 1) {
		t.Error("triggered DRIL must throttle above threshold")
	}
	// Relief: only 2 busy -> allow.
	v2 := &fakeView{vcs: 3, ports: 6, free: map[topology.Port]int{0: 2, 1: 3, 2: 3, 3: 3, 4: 3, 5: 3}}
	if !lim.Allow(v2, 1) {
		t.Error("DRIL must allow below threshold")
	}
}

func TestDRILQueueResetPreventsTrigger(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewDRIL()(tp, 3)[0].(*DRIL)
	busy := &fakeView{vcs: 3, ports: 6, queued: drilQueueTrigger, free: allFree(6, 3)}
	idle := &fakeView{vcs: 3, ports: 6, queued: 0, free: allFree(6, 3)}
	// Queue repeatedly dips below the trigger before persisting long enough.
	for i := 0; i < 10*drilPersistCycles; i++ {
		if i%(drilPersistCycles-1) == 0 {
			lim.Tick(idle, int64(i))
		} else {
			lim.Tick(busy, int64(i))
		}
	}
	if _, trig := lim.Threshold(); trig {
		t.Error("intermittent queue growth must not trigger DRIL")
	}
}

func TestDRILTightensOnRetrigger(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewDRIL()(tp, 3)[0].(*DRIL)
	v := &fakeView{
		vcs: 3, ports: 6, queued: drilQueueTrigger,
		free: map[topology.Port]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
	}
	// First trigger.
	for c := int64(0); c < drilPersistCycles; c++ {
		lim.Tick(v, c)
	}
	first, _ := lim.Threshold()
	// Keep the queue high past the cooldown: threshold tightens by one.
	for c := int64(0); c < drilCooldown+drilPersistCycles+1; c++ {
		lim.Tick(v, c)
	}
	second, _ := lim.Threshold()
	if second != first-1 {
		t.Errorf("threshold after retrigger %d want %d", second, first-1)
	}
}

func TestDRILThresholdFloor(t *testing.T) {
	tp := topology.New(8, 3)
	lim := NewDRIL()(tp, 3)[0].(*DRIL)
	// Trigger with everything free: busy=0 -> floor of 1.
	v := &fakeView{vcs: 3, ports: 6, queued: drilQueueTrigger, free: allFree(6, 3)}
	for c := int64(0); c < drilPersistCycles; c++ {
		lim.Tick(v, c)
	}
	if th, _ := lim.Threshold(); th != 1 {
		t.Errorf("threshold %d want floor 1", th)
	}
}

// TestStatefulLimitersAppendState pins the save half of LF's and DRIL's
// snapshot contract: AppendState appends after what dst holds, allocates
// nothing into reused storage, and the words it writes load into a fresh
// limiter that then decides, ticks and saves exactly like the original.
// LoadState refuses a word count or a flag it does not recognise.
func TestStatefulLimitersAppendState(t *testing.T) {
	tp := topology.New(8, 3)
	busy := &fakeView{
		useful: []topology.Port{0, 2, 4}, vcs: 3, ports: 6, queued: drilQueueTrigger, headWait: 90,
		free: map[topology.Port]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
	}
	idle := &fakeView{useful: []topology.Port{1}, vcs: 3, ports: 6, queued: drilQueueTrigger, free: allFree(6, 3)}
	view := func(c int) *fakeView {
		if c%5 == 4 {
			return idle
		}
		return busy
	}
	drive := func(lim core.Limiter, from, to int) {
		for c := from; c < to; c++ {
			lim.Allow(view(c), 1)
			if o, ok := lim.(core.CycleObserver); ok {
				o.Tick(view(c), int64(c))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		mk    core.Factory
		words int
		bad   []uint64
	}{
		{"lf", NewLF(), 2, []uint64{0, 2}},
		{"dril", NewDRIL(), 4, []uint64{2, 1, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.mk(tp, 3)[0].(core.StatefulLimiter)
			drive(orig, 0, 3*drilPersistCycles)

			words := orig.AppendState([]uint64{7})
			if len(words) != 1+tc.words || words[0] != 7 {
				t.Fatalf("AppendState after one word = %v, want 7 then %d words", words, tc.words)
			}
			dst := make([]uint64, 0, tc.words)
			allocs := testing.AllocsPerRun(100, func() { dst = orig.AppendState(dst[:0]) })
			if allocs != 0 {
				t.Errorf("AppendState into reused storage: %.0f allocations, want 0", allocs)
			}
			if !slices.Equal(dst, words[1:]) {
				t.Errorf("AppendState into reused storage = %v, want %v", dst, words[1:])
			}
			if fresh := tc.mk(tp, 3)[0].(core.StatefulLimiter).AppendState(nil); slices.Equal(dst, fresh) {
				t.Fatalf("driven state %v is a fresh limiter's: the test checks nothing", dst)
			}

			clone := tc.mk(tp, 3)[0].(core.StatefulLimiter)
			drive(clone, 0, 7) // desynchronize before loading
			if err := clone.LoadState(dst); err != nil {
				t.Fatal(err)
			}
			if got := clone.AppendState(nil); !slices.Equal(got, dst) {
				t.Fatalf("loaded state saves as %v, want %v", got, dst)
			}
			for c := 3 * drilPersistCycles; c < drilCooldown+4*drilPersistCycles; c++ {
				if a, b := orig.Allow(view(c), 1), clone.Allow(view(c), 1); a != b {
					t.Fatalf("cycle %d: restored limiter decided %v, original %v", c, b, a)
				}
				drive(orig, c, c+1)
				drive(clone, c, c+1)
			}
			if a, b := orig.AppendState(nil), clone.AppendState(nil); !slices.Equal(a, b) {
				t.Errorf("after the same cycles: restored %v, original %v", b, a)
			}

			for _, s := range [][]uint64{nil, dst[:tc.words-1], append(slices.Clone(dst), 0), tc.bad} {
				if err := clone.LoadState(s); err == nil {
					t.Errorf("LoadState(%v) accepted", s)
				}
			}
		})
	}
}

// TestFactories checks that each mechanism of the comparison builds a whole
// network's limiters: one per node, all answering to its name, an instance of
// their own for the stateful ones, and the same few objects on 16 nodes as on
// 512.
func TestFactories(t *testing.T) {
	fs := Factories()
	small, large := topology.New(4, 2), topology.New(8, 3)
	for _, name := range []string{"none", "lf", "dril", "alo"} {
		f, ok := fs[name]
		if !ok {
			t.Fatalf("missing factory %q", name)
		}
		ls := f(large, 3)
		if len(ls) != large.Nodes() {
			t.Fatalf("factory %q built %d limiters for %d nodes", name, len(ls), large.Nodes())
		}
		for i, lim := range ls {
			if lim.Name() != name {
				t.Fatalf("factory %q built limiter %q for node %d", name, lim.Name(), i)
			}
		}
		if _, stateful := ls[0].(core.StatefulLimiter); stateful && ls[0] == ls[len(ls)-1] {
			t.Errorf("factory %q handed two nodes one stateful limiter", name)
		}
		gc := debug.SetGCPercent(-1) // a collection's own allocations would land in a count
		a, b := testing.AllocsPerRun(5, func() { f(small, 3) }), testing.AllocsPerRun(5, func() { f(large, 3) })
		debug.SetGCPercent(gc)
		if a != b || a > 2 {
			t.Errorf("factory %q: %.0f objects on %d nodes, %.0f on %d, want the same and at most 2",
				name, a, small.Nodes(), b, large.Nodes())
		}
	}
}

// LimiterByName is the one resolver behind wormsim's -limiter and a campaign
// spec's "limiter": every name builds the limiter that answers to it, and an
// unknown name is an error naming it.
func TestLimiterByName(t *testing.T) {
	for _, name := range []string{"none", "lf", "dril", "alo", "alo-rule-a", "alo-rule-b", "alo-all-channels"} {
		f, err := LimiterByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := f(topology.New(4, 2), 3)[0].Name(); got != name {
			t.Errorf("%s built limiter %q", name, got)
		}
	}
	for _, name := range []string{"", "nope", "ALO", "alo-rule-c"} {
		if _, err := LimiterByName(name); err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("unknown limiter %q: got %v", name, err)
		}
	}
}

// All limiters must satisfy core.Limiter; DRIL must also observe cycles.
var (
	_ core.Limiter       = None{}
	_ core.Limiter       = (*LF)(nil)
	_ core.Limiter       = (*DRIL)(nil)
	_ core.CycleObserver = (*DRIL)(nil)
)

// TestLFSamplesEveryConsultation pins LF's estimator as it behaves: the EWMA
// takes the queue head's useful-port count at every Allow, not once per
// generated message, so one head denied twice moves the estimate twice.
func TestLFSamplesEveryConsultation(t *testing.T) {
	lim := NewLF()(topology.New(8, 3), 3)[0].(*LF)
	busy := map[topology.Port]int{} // all 18 channels busy: every head is denied
	if lim.Allow(&fakeView{useful: []topology.Port{0, 1, 2, 3, 4, 5}, free: busy, vcs: 3, ports: 6}, 1) {
		t.Fatal("LF admitted a head on a fully busy node")
	}
	if lim.estAvg != 6 {
		t.Fatalf("first sample: estimate %v, want 6", lim.estAvg)
	}
	head := &fakeView{useful: []topology.Port{0, 3}, free: busy, vcs: 3, ports: 6}
	want := 6.0
	for i := 1; i <= 2; i++ {
		if lim.Allow(head, 1) {
			t.Fatalf("consultation %d admitted the head on a fully busy node", i)
		}
		want += lfEWMAWeight * (2 - want)
		if lim.estAvg != want {
			t.Fatalf("after %d consultations of one denied head: estimate %v, want %v", i, lim.estAvg, want)
		}
	}
}
