package stats

// Collector gathers the per-run metrics the paper reports. The simulation
// engine drives it through the On* hooks; measurement is restricted to a
// window so that warm-up transients are excluded, mirroring the evaluation
// methodology of Duato & López the paper adopts.
//
// Conventions:
//   - "accepted traffic" is flits delivered during the measurement window,
//     normalised per node per cycle;
//   - latency statistics cover messages *generated* inside the window and
//     delivered before the run ends (source-queue time included);
//   - the deadlock rate is detected deadlocks per injected message, both
//     counted inside the window;
//   - fairness counts messages injected per node inside the window.
type Collector struct {
	nodes      int
	winStart   int64
	winEnd     int64
	histWidth  float64
	histBucket int

	// Latency holds end-to-end latency samples (cycles) of measured
	// messages; NetLatency excludes source-queue time.
	Latency    Welford
	NetLatency Welford
	Hist       *Histogram

	generatedMsgs  int64
	deliveredMsgs  int64
	deliveredFlits int64
	injectedMsgs   int64
	deadlocks      int64

	// Fault-injection counters (all zero when faults are disabled).
	faultEvents int64 // link/router failures applied in the window
	abortedMsgs int64 // messages killed because their path died
	retriedMsgs int64 // source retries scheduled for killed messages
	droppedMsgs int64 // messages dropped (retries exhausted or unreachable)

	fairness *Fairness

	// runs counts the measurement windows folded into this collector (one
	// for a plain run, more after Merge). Per-cycle normalisations divide
	// by it so merged replicas report averages, not sums.
	runs int64

	// Per-class accounting (see class.go); all nil when disabled.
	classNames []string
	classOf    []uint8
	classNodes []int
	classes    []classAcc
}

// NewCollector returns a collector for a run over nodes nodes that measures
// activity in cycles [winStart, winEnd).
func NewCollector(nodes int, winStart, winEnd int64) *Collector {
	if nodes < 1 || winEnd <= winStart {
		panic("stats: bad collector window")
	}
	return &Collector{
		nodes:    nodes,
		winStart: winStart,
		winEnd:   winEnd,
		Hist:     NewHistogram(50, 200), // 50-cycle buckets up to 10k cycles
		fairness: NewFairness(nodes),
		runs:     1,
	}
}

// Merge folds other — a collector from a replica run over the same network
// and measurement window — into c. Latency statistics and histograms pool
// the samples, counters and per-node fairness counts accumulate, and
// per-cycle rates (accepted traffic) average over the merged runs. Both
// collectors must have identical geometry (nodes and window); Merge panics
// otherwise.
func (c *Collector) Merge(other *Collector) {
	if c.nodes != other.nodes || c.winStart != other.winStart || c.winEnd != other.winEnd {
		panic("stats: merging collectors of different geometry")
	}
	c.Latency.Merge(&other.Latency)
	c.NetLatency.Merge(&other.NetLatency)
	c.Hist.Merge(other.Hist)
	c.generatedMsgs += other.generatedMsgs
	c.deliveredMsgs += other.deliveredMsgs
	c.deliveredFlits += other.deliveredFlits
	c.injectedMsgs += other.injectedMsgs
	c.deadlocks += other.deadlocks
	c.faultEvents += other.faultEvents
	c.abortedMsgs += other.abortedMsgs
	c.retriedMsgs += other.retriedMsgs
	c.droppedMsgs += other.droppedMsgs
	c.fairness.Merge(other.fairness)
	c.mergeClasses(other)
	c.runs += other.runs
}

// Runs returns the number of measurement windows folded into this collector.
func (c *Collector) Runs() int64 { return c.runs }

// InWindow reports whether cycle t falls inside the measurement window.
func (c *Collector) InWindow(t int64) bool { return t >= c.winStart && t < c.winEnd }

// Window returns the measurement window [start, end).
func (c *Collector) Window() (start, end int64) { return c.winStart, c.winEnd }

// OnGenerated records the generation of a message by node src at cycle t
// and reports whether the message is measured (generated inside the window).
func (c *Collector) OnGenerated(t int64, src int) bool {
	if !c.InWindow(t) {
		return false
	}
	c.generatedMsgs++
	if c.classes != nil {
		c.classes[c.classOf[src]].generated++
	}
	return true
}

// OnInjected records that node injected a message at cycle t.
func (c *Collector) OnInjected(node int, t int64) {
	if !c.InWindow(t) {
		return
	}
	c.injectedMsgs++
	c.fairness.Inc(node)
	if c.classes != nil {
		c.classes[c.classOf[node]].injected++
	}
}

// OnDelivered records the delivery of a message from node src at cycle t.
// measured tells whether the message was generated inside the window;
// genTime and injTime are its generation and first-injection cycles.
func (c *Collector) OnDelivered(t, genTime, injTime int64, flits int, measured bool, src int) {
	inWin := c.InWindow(t)
	if inWin {
		c.deliveredMsgs++
		c.deliveredFlits += int64(flits)
	}
	var acc *classAcc
	if c.classes != nil {
		acc = &c.classes[c.classOf[src]]
		if inWin {
			acc.delivered++
			acc.deliveredFlits += int64(flits)
		}
	}
	if measured {
		lat := float64(t - genTime)
		c.Latency.Add(lat)
		c.Hist.Add(lat)
		if acc != nil {
			acc.latency.Add(lat)
		}
		if injTime >= 0 {
			c.NetLatency.Add(float64(t - injTime))
		}
	}
}

// OnDeadlock records a detected deadlock at cycle t.
func (c *Collector) OnDeadlock(t int64) {
	if c.InWindow(t) {
		c.deadlocks++
	}
}

// OnFault records the application of a fault event (a link or router
// failure — repairs are not counted) at cycle t.
func (c *Collector) OnFault(t int64) {
	if c.InWindow(t) {
		c.faultEvents++
	}
}

// OnAborted records a message killed at cycle t because a fault severed its
// path (or left it unroutable).
func (c *Collector) OnAborted(t int64) {
	if c.InWindow(t) {
		c.abortedMsgs++
	}
}

// OnRetried records a source retry scheduled at cycle t for a killed
// message.
func (c *Collector) OnRetried(t int64) {
	if c.InWindow(t) {
		c.retriedMsgs++
	}
}

// OnDropped records a message permanently dropped at cycle t.
func (c *Collector) OnDropped(t int64) {
	if c.InWindow(t) {
		c.droppedMsgs++
	}
}

// AcceptedTraffic returns the measured accepted traffic in
// flits/node/cycle, averaged over all merged runs.
func (c *Collector) AcceptedTraffic() float64 {
	cycles := (c.winEnd - c.winStart) * c.runs
	return float64(c.deliveredFlits) / float64(c.nodes) / float64(cycles)
}

// DeadlockRate returns detected deadlocks per injected message, in percent.
// It returns 0 when nothing was injected.
func (c *Collector) DeadlockRate() float64 {
	if c.injectedMsgs == 0 {
		return 0
	}
	return 100 * float64(c.deadlocks) / float64(c.injectedMsgs)
}

// Generated returns the number of measured generated messages.
func (c *Collector) Generated() int64 { return c.generatedMsgs }

// Delivered returns the number of messages delivered inside the window.
func (c *Collector) Delivered() int64 { return c.deliveredMsgs }

// Injected returns the number of messages injected inside the window.
func (c *Collector) Injected() int64 { return c.injectedMsgs }

// Deadlocks returns the number of deadlocks detected inside the window.
func (c *Collector) Deadlocks() int64 { return c.deadlocks }

// Fairness returns the per-node injection counters.
func (c *Collector) Fairness() *Fairness { return c.fairness }

// Result is an immutable summary of a finished run, convenient for tables.
type Result struct {
	AvgLatency    float64 // cycles, including source-queue time
	StdLatency    float64 // standard deviation of latency
	AvgNetLatency float64 // cycles, network only
	P99Latency    float64 // 99th percentile upper bound
	Accepted      float64 // flits/node/cycle
	DeadlockPct   float64 // detected deadlocks per injected message (%)
	Delivered     int64
	Injected      int64
	Generated     int64
	WorstNodeDev  float64 // most negative per-node injection deviation (%)
	BestNodeDev   float64 // most positive per-node injection deviation (%)

	// Fault-injection measures (window counts; zero when faults are off).
	FaultEvents int64 // failures applied
	Aborted     int64 // messages killed by faults
	Retried     int64 // source retries scheduled
	Dropped     int64 // messages permanently dropped
}

// Result summarises the collector.
func (c *Collector) Result() Result {
	worst, best := c.fairness.Spread()
	return Result{
		AvgLatency:    c.Latency.Mean(),
		StdLatency:    c.Latency.StdDev(),
		AvgNetLatency: c.NetLatency.Mean(),
		P99Latency:    c.Hist.Quantile(0.99, c.Latency.Max()),
		Accepted:      c.AcceptedTraffic(),
		DeadlockPct:   c.DeadlockRate(),
		Delivered:     c.deliveredMsgs,
		Injected:      c.injectedMsgs,
		Generated:     c.generatedMsgs,
		WorstNodeDev:  worst,
		BestNodeDev:   best,
		FaultEvents:   c.faultEvents,
		Aborted:       c.abortedMsgs,
		Retried:       c.retriedMsgs,
		Dropped:       c.droppedMsgs,
	}
}
