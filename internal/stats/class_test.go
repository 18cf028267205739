package stats

import (
	"math"
	"testing"
)

// classFixture returns a 4-node collector with nodes {0,2} good and {1,3}
// rogue, window [100, 200).
func classFixture() *Collector {
	c := NewCollector(4, 100, 200)
	c.EnableClasses([]string{"good", "rogue"}, []uint8{0, 1, 0, 1})
	return c
}

func TestClassAttribution(t *testing.T) {
	c := classFixture()
	if c.ClassResults() == nil {
		t.Fatal("classes not enabled")
	}
	// Two good generations, one rogue; deliveries split likewise.
	c.OnGenerated(150, 0)
	c.OnGenerated(150, 2)
	c.OnGenerated(150, 1)
	c.OnInjected(0, 150)
	c.OnInjected(1, 150)
	c.OnDelivered(180, 150, 155, 16, true, 0) // good, latency 30
	c.OnDelivered(190, 150, 155, 8, true, 1)  // rogue, latency 40
	c.OnDelivered(250, 150, 155, 8, true, 2)  // good, out of window: latency only

	rs := c.ClassResults()
	if len(rs) != 2 {
		t.Fatalf("got %d class results", len(rs))
	}
	good, rogue := rs[0], rs[1]
	if good.Class != "good" || good.Nodes != 2 || rogue.Class != "rogue" || rogue.Nodes != 2 {
		t.Fatalf("class config: %+v %+v", good, rogue)
	}
	if good.Generated != 2 || rogue.Generated != 1 {
		t.Errorf("generated: good=%d rogue=%d", good.Generated, rogue.Generated)
	}
	if good.Injected != 1 || rogue.Injected != 1 {
		t.Errorf("injected: good=%d rogue=%d", good.Injected, rogue.Injected)
	}
	if good.Delivered != 1 || good.DeliveredFlits != 16 || rogue.Delivered != 1 || rogue.DeliveredFlits != 8 {
		t.Errorf("delivered: good=%d/%d rogue=%d/%d",
			good.Delivered, good.DeliveredFlits, rogue.Delivered, rogue.DeliveredFlits)
	}
	// Good latency pools the in-window 30 and the out-of-window 100.
	if want := (30.0 + 100.0) / 2; math.Abs(good.AvgLatency-want) > 1e-12 {
		t.Errorf("good latency %v want %v", good.AvgLatency, want)
	}
	if math.Abs(rogue.AvgLatency-40) > 1e-12 {
		t.Errorf("rogue latency %v want 40", rogue.AvgLatency)
	}
	// Accepted: flits / class nodes / window cycles.
	if want := 16.0 / 2 / 100; math.Abs(good.Accepted-want) > 1e-12 {
		t.Errorf("good accepted %v want %v", good.Accepted, want)
	}
	// Global counters unaffected by the class split.
	if c.Generated() != 3 || c.Delivered() != 2 {
		t.Errorf("global counters gen=%d del=%d", c.Generated(), c.Delivered())
	}
}

func TestClassResultsDisabled(t *testing.T) {
	c := NewCollector(4, 100, 200)
	if c.ClassResults() != nil || c.ClassOf() != nil {
		t.Fatal("class accounting active without EnableClasses")
	}
}

func TestClassMerge(t *testing.T) {
	a, b := classFixture(), classFixture()
	a.OnDelivered(150, 100, 110, 16, true, 0)
	b.OnDelivered(160, 100, 110, 16, true, 0)
	b.OnDelivered(170, 100, 110, 8, true, 3)
	a.Merge(b)
	rs := a.ClassResults()
	if rs[0].Delivered != 2 || rs[0].DeliveredFlits != 32 || rs[1].Delivered != 1 {
		t.Errorf("merged: %+v", rs)
	}
	// Accepted averages over runs: 32 flits / 2 nodes / (100 cycles * 2 runs).
	if want := 32.0 / 2 / 200; math.Abs(rs[0].Accepted-want) > 1e-12 {
		t.Errorf("merged accepted %v want %v", rs[0].Accepted, want)
	}

	// Mismatched class maps must refuse to merge.
	c := NewCollector(4, 100, 200)
	c.EnableClasses([]string{"good", "rogue"}, []uint8{1, 0, 1, 0})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merge of different class maps did not panic")
			}
		}()
		a.Merge(c)
	}()
	// A classless collector must not merge into a classed one.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merge of classless into classed did not panic")
			}
		}()
		a.Merge(NewCollector(4, 100, 200))
	}()
}

func TestClassStateRoundTrip(t *testing.T) {
	orig := classFixture()
	orig.OnGenerated(150, 1)
	orig.OnInjected(1, 150)
	orig.OnDelivered(180, 150, 155, 16, true, 1)

	// A fresh collector without classes adopts the snapshot's configuration.
	fresh := NewCollector(4, 100, 200)
	if err := fresh.Restore(orig.State()); err != nil {
		t.Fatal(err)
	}
	rsO, rsF := orig.ClassResults(), fresh.ClassResults()
	if len(rsF) != len(rsO) {
		t.Fatalf("restored %d classes, want %d", len(rsF), len(rsO))
	}
	for i := range rsO {
		if rsF[i] != rsO[i] {
			t.Errorf("class %d diverged:\n got  %+v\n want %+v", i, rsF[i], rsO[i])
		}
	}

	// Both keep counting identically after the restore point.
	for _, c := range []*Collector{orig, fresh} {
		c.OnDelivered(190, 150, 155, 8, true, 2)
	}
	rsO, rsF = orig.ClassResults(), fresh.ClassResults()
	for i := range rsO {
		if rsF[i] != rsO[i] {
			t.Errorf("post-restore class %d diverged:\n got  %+v\n want %+v", i, rsF[i], rsO[i])
		}
	}

	// A conflicting class map must be rejected.
	bad := NewCollector(4, 100, 200)
	bad.EnableClasses([]string{"good", "rogue"}, []uint8{1, 1, 0, 0})
	if err := bad.Restore(orig.State()); err == nil {
		t.Error("restore over conflicting class map succeeded")
	}
	// A classless snapshot cannot land in a classed collector.
	plain := NewCollector(4, 100, 200)
	if err := classFixture().Restore(plain.State()); err == nil {
		t.Error("classless snapshot restored into classed collector")
	}
}
