package stats

import (
	"math"
	"testing"
)

// Merging accumulators fed disjoint halves of a sample stream must be
// indistinguishable from one accumulator fed the whole stream — that is the
// contract the experiment runner relies on when it pools replica runs.

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestHistogramMerge(t *testing.T) {
	samples := []float64{3, 47, 51, 120, 999, 10500, -2, 0, 49.9, 260}
	whole := NewHistogram(50, 200)
	a := NewHistogram(50, 200)
	b := NewHistogram(50, 200)
	for i, s := range samples {
		whole.Add(s)
		if i%2 == 0 {
			a.Add(s)
		} else {
			b.Add(s)
		}
	}
	a.Merge(b)
	if a.Total() != whole.Total() || a.Overflow() != whole.Overflow() {
		t.Fatalf("merged total/overflow %d/%d, want %d/%d",
			a.Total(), a.Overflow(), whole.Total(), whole.Overflow())
	}
	for i := 0; i < 200; i++ {
		if a.Bucket(i) != whole.Bucket(i) {
			t.Fatalf("bucket %d: merged %d, whole %d", i, a.Bucket(i), whole.Bucket(i))
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q, 10500) != whole.Quantile(q, 10500) {
			t.Fatalf("quantile %v: merged %v, whole %v", q, a.Quantile(q, 10500), whole.Quantile(q, 10500))
		}
	}
}

func TestHistogramMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging histograms of different geometry did not panic")
		}
	}()
	NewHistogram(50, 200).Merge(NewHistogram(25, 200))
}

func TestFairnessMerge(t *testing.T) {
	whole := NewFairness(8)
	a := NewFairness(8)
	b := NewFairness(8)
	for i := 0; i < 100; i++ {
		n := (i * 5) % 8
		whole.Inc(n)
		if i < 60 {
			a.Inc(n)
		} else {
			b.Inc(n)
		}
	}
	a.Merge(b)
	for n := 0; n < 8; n++ {
		if a.Count(n) != whole.Count(n) {
			t.Fatalf("node %d: merged count %d, whole %d", n, a.Count(n), whole.Count(n))
		}
	}
	aw, ab := a.Spread()
	ww, wb := whole.Spread()
	if aw != ww || ab != wb {
		t.Fatalf("merged spread (%v,%v), whole (%v,%v)", aw, ab, ww, wb)
	}
}

func TestFairnessMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging fairness trackers of different sizes did not panic")
		}
	}()
	NewFairness(8).Merge(NewFairness(16))
}

// feedCollector plays a deterministic synthetic run into c, with every event
// stream offset by phase so two replicas differ.
func feedCollector(c *Collector, phase int64) {
	for i := int64(0); i < 40; i++ {
		t := 100 + (i*13+phase*7)%300 // inside the [100, 400) window
		gen := t - 20 - phase
		measured := c.OnGenerated(t, int(i+phase)%4)
		c.OnInjected(int(i+phase)%4, t)
		c.OnDelivered(t, gen, gen+5, 4, measured, int(i+phase)%4)
		if i%9 == phase%9 {
			c.OnDeadlock(t)
		}
		if i%11 == 0 {
			c.OnFault(t)
			c.OnAborted(t)
			c.OnRetried(t)
		}
		if i%17 == 0 {
			c.OnDropped(t)
		}
	}
}

func TestCollectorMerge(t *testing.T) {
	a := NewCollector(4, 100, 400)
	b := NewCollector(4, 100, 400)
	feedCollector(a, 0)
	feedCollector(b, 3)

	// A reference collector fed both streams back to back: the merged
	// result must pool samples and counters exactly the same way.
	ref := NewCollector(4, 100, 400)
	feedCollector(ref, 0)
	feedCollector(ref, 3)

	accA, accB := a.AcceptedTraffic(), b.AcceptedTraffic()
	a.Merge(b)

	if got, want := a.Runs(), int64(2); got != want {
		t.Fatalf("Runs() = %d, want %d", got, want)
	}
	// Counters and pooled samples match the reference stream.
	got, want := a.Result(), ref.Result()
	if got.Delivered != want.Delivered || got.Injected != want.Injected ||
		got.Generated != want.Generated ||
		got.FaultEvents != want.FaultEvents || got.Aborted != want.Aborted ||
		got.Retried != want.Retried || got.Dropped != want.Dropped {
		t.Fatalf("merged counters %+v, reference %+v", got, want)
	}
	if !almostEqual(got.AvgLatency, want.AvgLatency) ||
		!almostEqual(got.StdLatency, want.StdLatency) ||
		!almostEqual(got.AvgNetLatency, want.AvgNetLatency) ||
		got.P99Latency != want.P99Latency {
		t.Fatalf("merged latency stats %+v, reference %+v", got, want)
	}
	if got.DeadlockPct != want.DeadlockPct {
		t.Fatalf("merged deadlock pct %v, reference %v", got.DeadlockPct, want.DeadlockPct)
	}
	if got.WorstNodeDev != want.WorstNodeDev || got.BestNodeDev != want.BestNodeDev {
		t.Fatalf("merged fairness (%v,%v), reference (%v,%v)",
			got.WorstNodeDev, got.BestNodeDev, want.WorstNodeDev, want.BestNodeDev)
	}
	// Accepted traffic averages over runs rather than summing: two runs
	// over the same window do not double the per-cycle rate.
	if wantAcc := (accA + accB) / 2; !almostEqual(got.Accepted, wantAcc) {
		t.Fatalf("merged accepted %v, want mean of replicas %v", got.Accepted, wantAcc)
	}
}

func TestCollectorMergeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging collectors with different windows did not panic")
		}
	}()
	NewCollector(4, 100, 400).Merge(NewCollector(4, 100, 500))
}
