package stats

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.StdDev() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count=%d", w.Count())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean=%v", w.Mean())
	}
	if !almost(w.StdDev(), 2, 1e-12) { // classic example: sigma = 2
		t.Errorf("StdDev=%v", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max=%v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Variance() != 0 || w.Min() != 3.5 || w.Max() != 3.5 {
		t.Error("single-sample stats wrong")
	}
}

// Property: Welford matches the two-pass definition.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			x := float64(v)
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		wantVar := 0.0
		if len(raw) > 1 {
			wantVar = m2 / float64(len(raw))
		}
		scale := math.Max(1, math.Abs(mean))
		return almost(w.Mean(), mean, 1e-9*scale) &&
			almost(w.Variance(), wantVar, 1e-6*math.Max(1, wantVar))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMerge(t *testing.T) {
	f := func(a, b []int16) bool {
		var wa, wb, wall Welford
		for _, v := range a {
			wa.Add(float64(v))
			wall.Add(float64(v))
		}
		for _, v := range b {
			wb.Add(float64(v))
			wall.Add(float64(v))
		}
		wa.Merge(&wb)
		if wa.Count() != wall.Count() {
			return false
		}
		if wall.Count() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(wall.Mean()))
		return almost(wa.Mean(), wall.Mean(), 1e-9*scale) &&
			almost(wa.Variance(), wall.Variance(), 1e-6*math.Max(1, wall.Variance())) &&
			wa.Min() == wall.Min() && wa.Max() == wall.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, x := range []float64{0, 5, 9.99, 10, 25, 49, 50, 1000, -3} {
		h.Add(x)
	}
	if h.Total() != 9 {
		t.Fatalf("Total=%d", h.Total())
	}
	if h.Bucket(0) != 4 { // 0, 5, 9.99, -3
		t.Errorf("bucket0=%d", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(2) != 1 || h.Bucket(4) != 1 {
		t.Error("mid buckets wrong")
	}
	if h.Overflow() != 2 { // 50, 1000
		t.Errorf("overflow=%d", h.Overflow())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0.5, 99); q != 50 {
		t.Errorf("median=%v", q)
	}
	if q := h.Quantile(0.99, 99); q != 99 {
		t.Errorf("p99=%v", q)
	}
	empty := NewHistogram(1, 10)
	if empty.Quantile(0.5, 0) != 0 {
		t.Error("empty quantile")
	}
	over := NewHistogram(1, 2)
	over.Add(100)
	if q := over.Quantile(0.9, 100); q != 100 {
		t.Errorf("overflow quantile %v, want the largest sample 100", q)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 5) },
		func() { NewHistogram(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFairness(t *testing.T) {
	f := NewFairness(4)
	// Counts: 100, 100, 50, 150 -> mean 100.
	for i := 0; i < 100; i++ {
		f.Inc(0)
		f.Inc(1)
	}
	for i := 0; i < 50; i++ {
		f.Inc(2)
	}
	for i := 0; i < 150; i++ {
		f.Inc(3)
	}
	if f.Mean() != 100 {
		t.Fatalf("Mean=%v", f.Mean())
	}
	devs := f.Deviations()
	want := []float64{0, 0, -50, 50}
	for i := range want {
		if !almost(devs[i], want[i], 1e-12) {
			t.Errorf("dev[%d]=%v want %v", i, devs[i], want[i])
		}
	}
	worst, best := f.Spread()
	if worst != -50 || best != 50 {
		t.Errorf("Spread=(%v,%v)", worst, best)
	}
	sorted := f.SortedDeviations()
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("SortedDeviations not sorted")
		}
	}
	if f.Count(3) != 150 {
		t.Errorf("Count(3)=%d", f.Count(3))
	}
}

func TestFairnessZeroMean(t *testing.T) {
	f := NewFairness(3)
	for _, d := range f.Deviations() {
		if d != 0 {
			t.Fatal("zero-mean deviations must be 0")
		}
	}
}

func TestCollectorWindowing(t *testing.T) {
	c := NewCollector(4, 100, 200)
	if s, e := c.Window(); s != 100 || e != 200 {
		t.Fatal("window")
	}
	if c.OnGenerated(50, 0) {
		t.Error("pre-window generation measured")
	}
	if !c.OnGenerated(150, 0) {
		t.Error("in-window generation not measured")
	}
	if c.OnGenerated(200, 0) {
		t.Error("post-window generation measured")
	}
	c.OnInjected(1, 50)  // ignored
	c.OnInjected(1, 150) // counted
	c.OnDeadlock(99)     // ignored
	c.OnDeadlock(150)    // counted
	if c.Injected() != 1 || c.Deadlocks() != 1 || c.Generated() != 1 {
		t.Errorf("counters: inj=%d dl=%d gen=%d", c.Injected(), c.Deadlocks(), c.Generated())
	}
	if f := c.Fairness(); f.Count(1) != 1 || f.Count(0) != 0 {
		t.Errorf("fairness counts node 1: %d, node 0: %d; want only the in-window injection", f.Count(1), f.Count(0))
	}
}

func TestCollectorMetrics(t *testing.T) {
	// 2 nodes, window of 100 cycles.
	c := NewCollector(2, 0, 100)
	// Deliver 10 messages of 16 flits inside the window, latency 40 each.
	for i := 0; i < 10; i++ {
		c.OnInjected(i%2, 10)
		c.OnDelivered(50, 10, 20, 16, true, 0)
	}
	// One delivery outside the window: not counted in traffic.
	c.OnDelivered(150, 10, 20, 16, false, 0)
	if got, want := c.AcceptedTraffic(), 10.0*16/2/100; !almost(got, want, 1e-12) {
		t.Errorf("Accepted=%v want %v", got, want)
	}
	if c.Latency.Mean() != 40 || c.Latency.Count() != 10 {
		t.Errorf("latency mean=%v n=%d", c.Latency.Mean(), c.Latency.Count())
	}
	if c.NetLatency.Mean() != 30 {
		t.Errorf("net latency=%v", c.NetLatency.Mean())
	}
	c.OnDeadlock(50)
	if !almost(c.DeadlockRate(), 10, 1e-12) { // 1 deadlock / 10 injected
		t.Errorf("DeadlockRate=%v", c.DeadlockRate())
	}
	r := c.Result()
	if r.AvgLatency != 40 || r.Delivered != 11-1 || r.Injected != 10 {
		t.Errorf("Result=%+v", r)
	}
	if r.DeadlockPct != c.DeadlockRate() || r.Accepted != c.AcceptedTraffic() {
		t.Error("Result disagrees with collector")
	}
}

func TestCollectorZeroInjections(t *testing.T) {
	c := NewCollector(2, 0, 10)
	if c.DeadlockRate() != 0 {
		t.Error("deadlock rate with no injections must be 0")
	}
}

func TestCollectorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCollector(0, 0, 10) },
		func() { NewCollector(2, 10, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// A latency past the histogram's last bucket gives a finite p99, the
// largest sample, so the result still encodes as JSON.
func TestCollectorOverflowEncodes(t *testing.T) {
	c := NewCollector(1, 0, 100)
	c.OnDelivered(20050, 50, 60, 16, true, 0)
	if c.Hist.Overflow() != 1 {
		t.Fatalf("sample of latency 20000 did not overflow the histogram (%d overflows)", c.Hist.Overflow())
	}
	r := c.Result()
	if r.P99Latency != 20000 {
		t.Errorf("p99 %v, want the largest sample 20000", r.P99Latency)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("result of an overflowing collector does not encode: %v", err)
	}
}

func TestCollectorMeasuredOutsideDelivery(t *testing.T) {
	// A measured message delivered after the window still contributes to
	// latency but not to accepted traffic.
	c := NewCollector(1, 0, 100)
	c.OnDelivered(500, 50, 60, 16, true, 0)
	if c.Latency.Count() != 1 || c.Delivered() != 0 {
		t.Errorf("latency n=%d delivered=%d", c.Latency.Count(), c.Delivered())
	}
	if c.Latency.Mean() != 450 {
		t.Errorf("latency=%v", c.Latency.Mean())
	}
}

func TestWelfordRandomizedMergeStress(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var parts [8]Welford
	var all Welford
	for i := 0; i < 10000; i++ {
		x := rng.NormFloat64()*12 + 100
		parts[i%8].Add(x)
		all.Add(x)
	}
	var merged Welford
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if !almost(merged.Mean(), all.Mean(), 1e-9) || !almost(merged.Variance(), all.Variance(), 1e-6) {
		t.Errorf("merged=(%v,%v) all=(%v,%v)", merged.Mean(), merged.Variance(), all.Mean(), all.Variance())
	}
}
