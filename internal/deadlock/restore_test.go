package deadlock

import "testing"

// TestBlockTrackerRestore pins the checkpoint path: restored counters must
// behave identically to counters that were accumulated live, and hot must be
// recomputed against the *receiver's* watermark — which may differ from the
// watermark of the tracker that produced the counters, since it depends on
// the engine's worker count.
func TestBlockTrackerRestore(t *testing.T) {
	src := NewBlockTracker(6)
	for i := 0; i < 4; i++ {
		src.Blocked(1)
		src.Blocked(3)
	}
	src.Blocked(3) // counters: [0 4 0 5 0 0]
	saved := src.AppendCounters(nil)

	// Restore into an armed tracker: hot counts entries >= its watermark.
	armed := NewBlockTracker(6)
	armed.SetWatermark(4)
	if err := armed.RestoreCounters(saved); err != nil {
		t.Fatal(err)
	}
	if got := armed.Hot(); got != 2 {
		t.Errorf("hot after restore = %d, want 2", got)
	}
	if got := armed.Count(3); got != 5 {
		t.Errorf("counter 3 = %d, want 5", got)
	}
	// Hot bookkeeping stays consistent through further live updates.
	armed.Progress(3)
	if got := armed.Hot(); got != 1 {
		t.Errorf("hot after progress = %d, want 1", got)
	}
	armed.Blocked(1)
	if got := armed.Hot(); got != 1 {
		t.Errorf("hot after re-block of already-hot channel = %d, want 1", got)
	}

	// Restore into a disarmed tracker: hot stays zero.
	idle := NewBlockTracker(6)
	if err := idle.RestoreCounters(saved); err != nil {
		t.Fatal(err)
	}
	if got := idle.Hot(); got != 0 {
		t.Errorf("hot on disarmed tracker = %d, want 0", got)
	}

	// Length mismatch is an error, not a truncation.
	if err := NewBlockTracker(4).RestoreCounters(saved); err == nil {
		t.Error("restoring 6 counters into a 4-channel tracker succeeded")
	}
	// A second restore replaces the first outright.
	if err := armed.RestoreCounters(make([]int32, 6)); err != nil {
		t.Fatal(err)
	}
	if got := armed.Hot(); got != 0 {
		t.Errorf("hot after zero restore = %d, want 0", got)
	}
}
