package sim

// Live-metrics instrumentation of the engine. The layer is strictly
// observational: it reads engine state and never writes any, so a run
// produces bit-identical message-level results and counters with metrics
// enabled or disabled (TestMetricsDeterminism pins this), at any worker
// count. A disabled engine (e.met == nil) pays one nil check per
// instrumentation site and allocates nothing — the CI bench job gates
// allocs/op == 0 on exactly that path.
//
// Cost model, per the overhead budget in DESIGN.md §10:
//   - every cycle (metrics on): one counter add for moved flits, and at the
//     injection commit one add per admitted head and one to three per
//     throttle record (Engine.record; the gate's own rule bits attribute it);
//   - every SampleEvery cycles: an O(nodes) walk setting the gauges, the
//     per-phase wall-clock timers, and the optional sample hook (JSONL
//     snapshot). Amortised per cycle this stays O(nodes/SampleEvery).

import (
	"math/bits"

	"wormnet/internal/metrics"
)

// DefaultMetricsSampleEvery is the default gauge-sampling period in cycles.
const DefaultMetricsSampleEvery = 256

// phaseTimingBounds are the nanosecond histogram buckets of the per-phase
// timers: wide enough for an 8-ary 3-cube phase (tens of µs) and for whole
// parallel cycles, coarse enough to stay at ten buckets.
var phaseTimingBounds = []float64{500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 1e6}

// engineMetrics is the engine's registered metric set. All pointers come
// from one Registry; the struct exists so hot-path sites reach their metric
// with a field load instead of a map lookup.
type engineMetrics struct {
	// Mirrored monotone totals (Set from the engine's all-time totals at
	// sample and snapshot time — no hot-path cost).
	generated *metrics.Counter
	delivered *metrics.Counter
	recovered *metrics.Counter
	aborted   *metrics.Counter
	retried   *metrics.Counter
	dropped   *metrics.Counter

	// Live event counters (incremented at the commit: admitted at a claim,
	// the denials by Engine.record at a throttle record).
	admitted  *metrics.Counter
	denied    *metrics.Counter
	denyRuleA *metrics.Counter
	denyRuleB *metrics.Counter
	flits     *metrics.Counter

	// Sampled gauges.
	cycle        *metrics.Gauge
	inflight     *metrics.Gauge
	queueDepth   *metrics.Gauge
	recoveryWait *metrics.Gauge
	retryWait    *metrics.Gauge
	occupiedVCs  *metrics.Gauge
	occupancy    *metrics.Gauge // occupied input VCs / all input VCs
	freeOutVCs   *metrics.Gauge // unallocated output VCs / all output VCs
	busyInj      *metrics.Gauge
	flitsSampled *metrics.Gauge // flits moved on the sampled cycle

	// Sampled distributions across nodes (one Observe per node per sample).
	queueHist *metrics.Histogram
	occHist   *metrics.Histogram

	// Per-phase wall-clock timing, sampled cycles only: the time the
	// coordinating goroutine spent in each phase (cycleClock), indexed
	// phGenerate..phMove — shard 0's own sections, barrier waits excluded.
	phase     [numPhases]*metrics.Histogram
	cycleTime *metrics.Histogram // whole cycle

	// Sync profile, sampled cycles only. Barrier waits and shard busy time
	// need two shards or more (one shard never waits); the ring series
	// cover any engine.
	barrierWait    [4]*metrics.Histogram // per-shard wait at B1..B4
	shardBusy      *metrics.Histogram    // per-shard cycle time minus barrier waits
	shardImbalance *metrics.Gauge        // (max-min)/max shard busy on the sampled cycle
	ringHW         *metrics.Gauge        // push-ring fill high watermark, sampled cycle
	ringPushes     *metrics.Counter      // cross-shard ring pushes (all-time, mirrored)
}

// newEngineMetrics registers the engine's metric inventory in reg.
func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	c := func(name, help string) *metrics.Counter { return reg.NewCounter(name, help) }
	g := func(name, help string) *metrics.Gauge { return reg.NewGauge(name, help) }
	h := func(name, help string, b []float64) *metrics.Histogram { return reg.NewHistogram(name, help, b) }
	m := &engineMetrics{
		generated: c("sim_messages_generated_total", "messages created by traffic sources (all-time)"),
		delivered: c("sim_messages_delivered_total", "messages fully consumed at their destination (all-time)"),
		recovered: c("sim_deadlock_recoveries_total", "presumed-deadlocked messages handed to software recovery (all-time)"),
		aborted:   c("sim_messages_aborted_total", "messages killed because a fault severed their path (all-time)"),
		retried:   c("sim_messages_retried_total", "source retries scheduled for fault-killed messages (all-time)"),
		dropped:   c("sim_messages_dropped_total", "messages permanently dropped (all-time)"),

		admitted:  c("sim_injection_admitted_total", "source-queue heads the limiter admitted"),
		denied:    c("sim_injection_denied_total", "source-queue heads the limiter denied (throttle events)"),
		denyRuleA: c("sim_injection_deny_rule_a_total", "denials where rule (a) failed: a useful channel had no free VC"),
		denyRuleB: c("sim_injection_deny_rule_b_total", "denials where rule (b) failed: no useful channel was completely free"),
		flits:     c("sim_flits_moved_total", "flit transfers applied (crossbar traversals incl. ejection)"),

		cycle:        g("sim_cycle", "current simulation cycle (last sample)"),
		inflight:     g("sim_inflight_messages", "generated minus delivered minus dropped"),
		queueDepth:   g("sim_source_queue_depth", "messages waiting in source queues, network-wide"),
		recoveryWait: g("sim_recovery_pending", "recovered messages waiting out the re-injection delay"),
		retryWait:    g("sim_retry_pending", "fault-killed messages waiting out their retry backoff"),
		occupiedVCs:  g("sim_occupied_input_vcs", "input virtual channels holding at least one flit"),
		occupancy:    g("sim_input_vc_occupancy_ratio", "occupied input VCs over all input VCs"),
		freeOutVCs:   g("sim_free_output_vc_ratio", "unallocated output VCs over all output VCs"),
		busyInj:      g("sim_busy_injection_channels", "injection channels currently streaming a message"),
		flitsSampled: g("sim_flits_moved_per_cycle", "flit transfers on the sampled cycle (utilization proxy)"),

		queueHist: h("sim_node_queue_depth", "per-node source-queue depth at sample time",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
		occHist: h("sim_node_occupied_vcs", "per-node occupied input VCs at sample time",
			[]float64{0, 1, 2, 4, 8, 12, 16, 24}),

		phase: [numPhases]*metrics.Histogram{
			phGenerate: h("sim_phase_generate_ns", "generation-phase wall time (sampled cycles)", phaseTimingBounds),
			phInject:   h("sim_phase_inject_ns", "injection-phase wall time (sampled cycles)", phaseTimingBounds),
			phRoute:    h("sim_phase_route_ns", "VC-allocation/routing-phase wall time (sampled cycles)", phaseTimingBounds),
			phSwitch:   h("sim_phase_switch_ns", "switch-allocation-phase wall time (sampled cycles)", phaseTimingBounds),
			phMove:     h("sim_phase_move_ns", "flit-movement-phase wall time (sampled cycles)", phaseTimingBounds),
		},
		cycleTime: h("sim_cycle_ns", "whole-cycle wall time (sampled cycles)", phaseTimingBounds),
	}
	m.barrierWait = [4]*metrics.Histogram{
		h("sim_barrier_wait_b1_ns", "per-shard wait at barrier B1 (generation commit; sampled cycles)", phaseTimingBounds),
		h("sim_barrier_wait_b2_ns", "per-shard wait at barrier B2 (injection commit + alloc cut; sampled cycles)", phaseTimingBounds),
		h("sim_barrier_wait_b3_ns", "per-shard wait at barrier B3 (switch to move; sampled cycles)", phaseTimingBounds),
		h("sim_barrier_wait_b4_ns", "per-shard wait at barrier B4 (move commit; sampled cycles)", phaseTimingBounds),
	}
	m.shardBusy = h("sim_shard_busy_ns", "per-shard cycle time minus barrier waits (sampled cycles)", phaseTimingBounds)
	m.shardImbalance = g("sim_shard_imbalance_ratio", "(max-min)/max shard busy time on the sampled cycle")
	m.ringHW = g("sim_push_ring_high_watermark", "largest push-ring batch published on the sampled cycle")
	m.ringPushes = c("sim_ring_pushes_total", "cross-shard flit pushes routed through SPSC rings (all-time)")
	return m
}

// EnableMetrics attaches a metrics registry to the engine: event counters
// update live, gauges are sampled every sampleEvery cycles (<= 0 selects
// DefaultMetricsSampleEvery). Pass a nil registry to detach. Enabling
// metrics never changes simulation results; it may be called on a fresh
// engine only (before the first Step), so mirrored totals stay exact.
func (e *Engine) EnableMetrics(reg *metrics.Registry, sampleEvery int64) {
	if reg == nil {
		e.met = nil
		e.metReg = nil
		return
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultMetricsSampleEvery
	}
	e.met = newEngineMetrics(reg)
	e.metEvery = sampleEvery
	e.metReg = reg
}

// SetSampleHook registers a function called right after each metrics sample
// (every sampleEvery cycles, on the simulation goroutine) with the sampled
// cycle. It is the deterministic attachment point for periodic exporters —
// the JSONL snapshot stream in cmd/wormsim. Pass nil to detach; the hook
// never fires while metrics are disabled.
func (e *Engine) SetSampleHook(h func(cycle int64)) { e.onSample = h }

// FlushMetrics forces a gauge sample (and sample-hook firing) at the
// current cycle, outside the periodic cadence. Run calls it after the last
// cycle; step-driven callers can use it before reading final totals. It is
// a no-op with metrics disabled.
func (e *Engine) FlushMetrics() {
	if e.met != nil {
		e.sampleMetrics()
	}
}

// mirrorTotals sets the six mirrored counters to the engine's all-time totals:
// at every sample, and before a snapshot takes the registry, so a checkpoint's
// metrics are of its own cycle.
func (e *Engine) mirrorTotals() {
	m := e.met
	m.generated.Set(e.Generated())
	m.delivered.Set(e.Delivered())
	m.recovered.Set(e.Recovered())
	m.aborted.Set(e.Aborted())
	m.retried.Set(e.Retried())
	m.dropped.Set(e.Dropped())
}

// metricsSampled reports whether the current cycle is a sampling cycle.
func (e *Engine) metricsSampled() bool {
	return e.met != nil && e.now%e.metEvery == 0
}

// sampleMetrics walks the network once and refreshes every gauge, then
// fires the sample hook. It runs between cycles on the coordinator, so all
// reads are race-free; it writes nothing but metrics.
func (e *Engine) sampleMetrics() {
	m := e.met
	var queued, recPend, retryPend, occ, busy, freeOut int
	for i := range e.nodes {
		nd := &e.nodes[i]
		q := nd.queue.Len()
		queued += q
		recPend += len(nd.recovery)
		retryPend += len(nd.retry)
		nodeOcc := bits.OnesCount64(e.inMask &^ e.empty[i])
		occ += nodeOcc
		busy += nd.busyInj
		freeOut += bits.OnesCount64(nd.free)
		m.queueHist.Observe(float64(q))
		m.occHist.Observe(float64(nodeOcc))
	}
	totalVCs := len(e.nodes) * e.numPhys * e.cfg.VCs

	m.cycle.SetInt(e.now)
	m.inflight.SetInt(e.InFlight())
	m.queueDepth.SetInt(int64(queued))
	m.recoveryWait.SetInt(int64(recPend))
	m.retryWait.SetInt(int64(retryPend))
	m.occupiedVCs.SetInt(int64(occ))
	m.occupancy.Set(float64(occ) / float64(totalVCs))
	m.freeOutVCs.Set(float64(freeOut) / float64(totalVCs))
	m.busyInj.SetInt(int64(busy))
	e.mirrorTotals()

	if e.onSample != nil {
		e.onSample(e.now)
	}
}
