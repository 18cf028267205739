package stats

import (
	"strings"
	"testing"
)

// populatedCollector builds a collector with every accumulator non-trivial:
// in/out-of-window events, fairness spread across nodes.
func populatedCollector() *Collector {
	c := NewCollector(8, 100, 900)
	for i := int64(0); i < 40; i++ {
		t := i * 25 // straddles the window on both sides
		c.OnGenerated(t, int(i%8))
		c.OnInjected(int(i%8), t)
		c.OnDelivered(t+60, t, t+5, 16, c.InWindow(t), int(i%8))
		if i%7 == 0 {
			c.OnDeadlock(t)
		}
		if i%11 == 0 {
			c.OnFault(t)
			c.OnAborted(t)
			c.OnRetried(t)
		}
		if i%13 == 0 {
			c.OnDropped(t)
		}
	}
	return c
}

// TestCollectorStateRoundTrip pins that State/Restore is lossless: a restored
// collector produces the identical Result, keeps accepting events, and ends
// exactly where the original does.
func TestCollectorStateRoundTrip(t *testing.T) {
	orig := populatedCollector()
	st := orig.State()

	fresh := NewCollector(8, 100, 900)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Result(), orig.Result(); got != want {
		t.Fatalf("restored result diverged:\n got  %+v\n want %+v", got, want)
	}

	// Both sides keep counting identically after the restore point.
	for _, c := range []*Collector{orig, fresh} {
		c.OnGenerated(500, 3)
		c.OnDelivered(550, 500, 505, 16, true, 3)
	}
	if got, want := fresh.Result(), orig.Result(); got != want {
		t.Fatalf("post-restore accounting diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestCollectorRestoreGeometryMismatch pins that every geometry field is
// validated: a snapshot from a differently shaped run must not restore.
func TestCollectorRestoreGeometryMismatch(t *testing.T) {
	st := populatedCollector().State()
	cases := map[string]*Collector{
		"node count": NewCollector(9, 100, 900),
		"window":     NewCollector(8, 0, 900),
	}
	for name, c := range cases {
		if err := c.Restore(st); err == nil {
			t.Errorf("%s mismatch restored without error", name)
		} else if !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("%s: unexpected error text: %v", name, err)
		}
	}

	// Sub-accumulator geometry: a tampered histogram state must fail too.
	bad := st
	bad.Hist.Buckets = bad.Hist.Buckets[:len(bad.Hist.Buckets)-1]
	if err := NewCollector(8, 100, 900).Restore(bad); err == nil {
		t.Error("histogram geometry mismatch restored without error")
	}
	bad = st
	bad.Fairness.Counts = append([]int64(nil), bad.Fairness.Counts...)
	bad.Fairness.Counts = bad.Fairness.Counts[:4]
	if err := NewCollector(8, 100, 900).Restore(bad); err == nil {
		t.Error("fairness length mismatch restored without error")
	}
}
