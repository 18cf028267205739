package modelcheck

import (
	"fmt"
	"testing"
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

// exhaustTwoWorm exhausts the CI-pinned model — the 2-ary 2-cube with two
// opposing diagonal worms, 40-cycle horizon — on engines of the given worker
// count and returns the report.
func exhaustTwoWorm(t *testing.T, workers int) *Report {
	t.Helper()
	spec := DefaultSpec()
	spec.Messages = spec.Messages[:2] // 0->3 and 3->0
	spec.MaxCycles = 40
	spec.MaxStates = 25000
	x, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x.cfg.Workers = workers // the config digest excludes the worker count
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
	if two.States != 18921 || two.Edges != 18920 {
		t.Errorf("workers=2 exhausted %d states over %d edges, pinned 18921 over 18920", two.States, two.Edges)
	}
	one.Spec, two.Spec = Spec{}, Spec{} // slices: compared through the counts below
	if fmt.Sprintf("%+v", *one) != fmt.Sprintf("%+v", *two) {
		t.Errorf("reports differ between worker counts:\n workers=1 %+v\n workers=2 %+v", *one, *two)
	}
}
