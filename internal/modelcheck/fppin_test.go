package modelcheck

import (
	"fmt"
	"runtime"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/sim"
)

// TestFalsePositivePin pins FC3D's exact verdict counts on the ring model
// at a fixed 8000-state budget — the regression fingerprint of the
// detector's accuracy. Exploration is deterministic, so these are exact
// equalities, not bounds; an intentional engine or detector change that
// shifts them should update the pins (and the EXPERIMENTS.md table) in the
// same commit.
//
// At the paper's default threshold (32 cycles) every recovery is a true
// positive: FC3D never misfires on a live message in this model. At an
// aggressively low threshold (8 cycles) recovery fires on transient
// blocking 41 times against 3 genuine deadlocks — the quantified cost of
// impatience, and the reason the paper's threshold is conservative. Both
// rows detect every ground-truth deadlock: lowering the threshold buys
// nothing here and recovers live worms.
func TestFalsePositivePin(t *testing.T) {
	cases := []struct {
		threshold      int32
		deadlockStates int
		truePositives  int64
		falsePositives int64
	}{
		{threshold: 32, deadlockStates: 33, truePositives: 3, falsePositives: 0},
		{threshold: 8, deadlockStates: 9, truePositives: 3, falsePositives: 41},
	}
	for _, tc := range cases {
		spec := RingSpec()
		spec.Threshold = tc.threshold
		spec.MaxStates = 8000
		x, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.FalseNegatives != 0 || rep.OracleUnsound != 0 || len(rep.Violations) != 0 {
			t.Fatalf("threshold %d: checker failure:\n%s", tc.threshold, rep.Format())
		}
		if rep.DeadlockStates != tc.deadlockStates || rep.Detected != rep.Probes {
			t.Errorf("threshold %d: %d deadlock states (%d/%d detected), want %d with all detected",
				tc.threshold, rep.DeadlockStates, rep.Detected, rep.Probes, tc.deadlockStates)
		}
		if rep.TruePositives != tc.truePositives || rep.FalsePositives != tc.falsePositives {
			t.Errorf("threshold %d: verdicts TP=%d FP=%d, pinned TP=%d FP=%d",
				tc.threshold, rep.TruePositives, rep.FalsePositives, tc.truePositives, tc.falsePositives)
		}
	}
}

// counts is every count of a Report: exploration is deterministic, so on a
// pinned model they are a fingerprint of every decision up to the budget, and
// a state expanded from the wrong engine moves the terminal, horizon, probe
// and verdict counts before it moves States.
type counts struct {
	States, Terminals, HorizonTruncated, MaxDepth int
	Edges, DupEdges                               int64
	DeadlockStates, Probes, Detected              int
	TruePositives, FalsePositives                 int64
}

func countsOf(r *Report) counts {
	return counts{r.States, r.Terminals, r.HorizonTruncated, r.MaxDepth, r.Edges, r.DupEdges,
		r.DeadlockStates, r.Probes, r.Detected, r.TruePositives, r.FalsePositives}
}

// The pinned models' counts. None of them changed when the round trip's
// restore became the engine its state's first edge steps from.
var (
	twoWormCounts = counts{States: 18921, Edges: 18920, Terminals: 625, HorizonTruncated: 1056, MaxDepth: 39}
	twoVCCounts   = counts{States: 15266, Edges: 15265, Terminals: 900, HorizonTruncated: 781, MaxDepth: 39}
	// boundedRing(20000): 33 deadlock states, every one detected.
	ringCounts = counts{States: 20000, Edges: 20409, DupEdges: 410, Terminals: 482, HorizonTruncated: 256,
		MaxDepth: 63, DeadlockStates: 33, Probes: 33, Detected: 33, TruePositives: 3}
	// twoVC(RingSpec()) at a 60 000-state budget.
	twoVCRingCounts = counts{States: 60000, Edges: 60013, DupEdges: 14, Terminals: 4127, HorizonTruncated: 1607, MaxDepth: 63}
)

// checkCounts fails t unless rep has the pinned counts.
func checkCounts(t *testing.T, what string, rep *Report, want counts) {
	t.Helper()
	if got := countsOf(rep); got != want {
		t.Errorf("%s:\n got    %+v\n pinned %+v", what, got, want)
	}
}

// twoWormSpec is the CI-pinned model: the 2-ary 2-cube with two opposing
// diagonal worms and a 40-cycle horizon.
func twoWormSpec() Spec {
	spec := DefaultSpec()
	spec.Messages = spec.Messages[:2] // 0->3 and 3->0
	spec.MaxCycles = 40
	spec.MaxStates = 25000
	return spec
}

// shardEngines has x build its engines on workers shards. From two on it
// raises GOMAXPROCS to 2 for the rest of the test (New keeps a single-P host
// to one shard, whatever Workers says) and checks that an engine of x's
// config does get them, so a single-P host cannot pass by running one shard.
func shardEngines(t *testing.T, x *Explorer, workers int) {
	t.Helper()
	x.cfg.Workers = workers // the config digest excludes the worker count
	if workers < 2 {
		return
	}
	procs := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	e, err := sim.New(x.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A sampled cycle of two shards or more books one busy-time sample per shard.
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 1)
	e.Step()
	samples := int64(-1)
	for _, s := range reg.Snapshot() {
		if s.Name == "sim_shard_busy_ns" {
			samples = s.N
		}
	}
	if samples != int64(workers) {
		t.Fatalf("workers=%d: a sampled cycle booked %d shard-busy samples, want one per shard", workers, samples)
	}
}

// exhaustTwoWorm exhausts the CI-pinned model on engines of the given worker
// count and returns the report.
func exhaustTwoWorm(t *testing.T, workers int) *Report {
	t.Helper()
	x, err := New(twoWormSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	shardEngines(t, x, workers)
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("workers=%d: exploration failed:\n%s", workers, rep.Format())
	}
	if !rep.Exhausted || rep.BudgetTruncated {
		t.Fatalf("workers=%d: state space not exhausted: %d states, budget-truncated=%v",
			workers, rep.States, rep.BudgetTruncated)
	}
	return rep
}

// TestExhaustiveTwoWormModel pins the one fully exhausted state space in
// the suite: the 2-ary 2-cube with two opposing diagonal worms has exactly
// 18 921 reachable states within the 40-cycle horizon, every one visited
// and checked, none deadlocked. Skipped under -short (the CI modelcheck
// job runs the same exploration through the CLI instead).
func TestExhaustiveTwoWormModel(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhaustion is covered by the CI modelcheck-smoke job")
	}
	rep := exhaustTwoWorm(t, 1)
	if rep.States != 18921 {
		t.Errorf("exhausted space has %d states, pinned 18921", rep.States)
	}
	if rep.DeadlockStates != 0 {
		t.Errorf("%d deadlock states in the 2-ary 2-cube; both-directions-minimal escape should prevent all", rep.DeadlockStates)
	}
	checkCounts(t, "two-worm model", rep, twoWormCounts)
}

// TestExhaustiveTwoWormModelSharded exhausts the same model on two-shard
// engines (two 2-node shards: the push rings, the deferred commits and the
// in-place Restore of a sharded runtime run on every one of the states), so
// the exhaustion certifies the sharded schedule and not only its one-shard
// case: the same canonical states, edges, verdict and probe counts.
func TestExhaustiveTwoWormModelSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("two full exhaustions")
	}
	one, two := exhaustTwoWorm(t, 1), exhaustTwoWorm(t, 2)
	checkCounts(t, "two-worm model, workers=2", two, twoWormCounts)
	one.Spec, two.Spec = Spec{}, Spec{} // slices: compared through the counts below
	if fmt.Sprintf("%+v", *one) != fmt.Sprintf("%+v", *two) {
		t.Errorf("reports differ between worker counts:\n workers=1 %+v\n workers=2 %+v", *one, *two)
	}
}

// twoVC gives a spec the router that puts several requesters on one output:
// two virtual channels of two flits, two injection and two ejection channels.
// The CI-pinned model above has one of each, so no output of it is ever
// contended and no header ever weighs two candidate channels.
func twoVC(spec Spec) Spec {
	spec.VCs, spec.BufDepth, spec.InjChannels, spec.EjChannels = 2, 2, 2, 2
	return spec
}

// TestExhaustiveTwoVCModel exhausts the two-worm model on that router: 15 266
// states over 15 265 edges within the 40-cycle horizon, at one shard and at
// two. The counts were taken with the scalar allocators (PR 16) and are
// unchanged under the word-parallel ones — every reachable state the same, so
// every allocation and every grant on the way to them.
func TestExhaustiveTwoVCModel(t *testing.T) {
	if testing.Short() {
		t.Skip("two full exhaustions; the CI modelcheck-smoke job runs one through the CLI")
	}
	for _, workers := range []int{1, 2} {
		spec := twoVC(twoWormSpec())
		spec.MaxStates = 60000
		x, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shardEngines(t, x, workers)
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() || !rep.Exhausted {
			t.Fatalf("workers=%d: not a clean exhaustion:\n%s", workers, rep.Format())
		}
		checkCounts(t, fmt.Sprintf("two-VC model, workers=%d", workers), rep, twoVCCounts)
	}
}

// TestTwoVCRingPin pins the same router on the 4-ary ring with its four-worm
// catalog, which a 60 000-state budget does not exhaust: the report's counts at
// the budget are the fingerprint (same provenance as above).
func TestTwoVCRingPin(t *testing.T) {
	if testing.Short() {
		t.Skip("60 000 states")
	}
	spec := twoVC(RingSpec())
	spec.MaxStates = 60000
	x, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("exploration failed:\n%s", rep.Format())
	}
	checkCounts(t, "two-VC ring", rep, twoVCRingCounts)
}
