package stats

// Per-traffic-class accounting. The adversarial workloads split nodes into
// classes — well-behaved sources that obey the injection limiter versus
// rogue sources that bypass it — and the question the experiments answer is
// how much of the *well-behaved* class's throughput and latency survives
// the attack. Global counters cannot answer that, so the collector can
// optionally attribute every generated/injected/delivered message to the
// class of its source node.
//
// Classes are identified by a per-node class index fixed for the whole run
// (a node cannot change class mid-run; the adversary model picks rogues up
// front from a seeded shuffle). Class accounting is pure observation: it
// never feeds back into simulation behaviour, so enabling it cannot perturb
// golden digests.

import "fmt"

// classAcc accumulates one class's window counters and latency samples.
type classAcc struct {
	generated      int64
	injected       int64
	delivered      int64
	deliveredFlits int64
	latency        Welford
}

// EnableClasses turns on per-class accounting. names gives the class labels
// (class i is names[i]); classOf maps each node to its class index and must
// cover every node of the collector's network. Call before the run starts;
// panics on geometry errors, mirroring NewCollector.
func (c *Collector) EnableClasses(names []string, classOf []uint8) {
	if len(names) == 0 || len(names) > 255 {
		panic("stats: class count out of range")
	}
	if len(classOf) != c.nodes {
		panic(fmt.Sprintf("stats: classOf covers %d nodes, collector has %d", len(classOf), c.nodes))
	}
	counts := make([]int, len(names))
	for n, cl := range classOf {
		if int(cl) >= len(names) {
			panic(fmt.Sprintf("stats: node %d assigned class %d, only %d classes", n, cl, len(names)))
		}
		counts[cl]++
	}
	c.classNames = append([]string(nil), names...)
	c.classOf = append([]uint8(nil), classOf...)
	c.classNodes = counts
	c.classes = make([]classAcc, len(names))
}

// ClassOf returns the per-node class map (nil when classes are disabled).
// Callers must not mutate it.
func (c *Collector) ClassOf() []uint8 { return c.classOf }

// ClassResult is an immutable per-class summary of a finished run. It is
// comparable, so equivalence tests can require bit-identical class results
// across worker counts.
type ClassResult struct {
	Class          string  // class label
	Nodes          int     // nodes assigned to this class
	Generated      int64   // messages generated in the window
	Injected       int64   // messages injected in the window
	Delivered      int64   // messages delivered in the window
	DeliveredFlits int64   // flits delivered in the window
	Accepted       float64 // flits per class-node per cycle
	AvgLatency     float64 // mean end-to-end latency of measured messages
}

// ClassResults summarises each class, in class-index order. It returns nil
// when class accounting is disabled.
func (c *Collector) ClassResults() []ClassResult {
	if c.classes == nil {
		return nil
	}
	out := make([]ClassResult, len(c.classes))
	cycles := (c.winEnd - c.winStart) * c.runs
	for i := range c.classes {
		a := &c.classes[i]
		accepted := 0.0
		if c.classNodes[i] > 0 {
			accepted = float64(a.deliveredFlits) / float64(c.classNodes[i]) / float64(cycles)
		}
		out[i] = ClassResult{
			Class:          c.classNames[i],
			Nodes:          c.classNodes[i],
			Generated:      a.generated,
			Injected:       a.injected,
			Delivered:      a.delivered,
			DeliveredFlits: a.deliveredFlits,
			Accepted:       accepted,
			AvgLatency:     a.latency.Mean(),
		}
	}
	return out
}

// mergeClasses folds other's class accumulators into c. Both sides must
// carry the same class configuration (or both none); panics otherwise,
// mirroring Merge's geometry check.
func (c *Collector) mergeClasses(other *Collector) {
	if (c.classes == nil) != (other.classes == nil) {
		panic("stats: merging collectors with mismatched class accounting")
	}
	if c.classes == nil {
		return
	}
	if len(c.classNames) != len(other.classNames) {
		panic("stats: merging collectors with different class counts")
	}
	for i := range c.classNames {
		if c.classNames[i] != other.classNames[i] {
			panic("stats: merging collectors with different class names")
		}
	}
	for n := range c.classOf {
		if c.classOf[n] != other.classOf[n] {
			panic("stats: merging collectors with different class maps")
		}
	}
	for i := range c.classes {
		c.classes[i].generated += other.classes[i].generated
		c.classes[i].injected += other.classes[i].injected
		c.classes[i].delivered += other.classes[i].delivered
		c.classes[i].deliveredFlits += other.classes[i].deliveredFlits
		c.classes[i].latency.Merge(&other.classes[i].latency)
	}
}
