package main

import "fmt"

// metricDef names one metric of the ledger. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; bench_test.go
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd is what a user of the simulator pays, measured with tracing off.
// An op is one simulated network cycle, except on mc-exhaust where it is one
// visited state. The issue's sixth metric, failed_share, is always 0 on a
// passing run, so it travels as the result's failed/attempted counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"ops_done", "count", "higher", 0.01},
}

// perLayer comes from the traced run and the layer probes; the prefix is the
// package the number belongs to. A metric whose layer a workload does not
// exercise reads 0 on that workload (see README.md for which run fills what).
var perLayer = []metricDef{
	// sim, one cycle
	{"sim.step_us_p50", "us", "lower", 0},
	{"sim.step_us_p99", "us", "lower", 0},
	{"sim.phase_generate_us", "us", "lower", 0},
	{"sim.phase_inject_us", "us", "lower", 0},
	{"sim.phase_route_us", "us", "lower", 0},
	{"sim.phase_switch_us", "us", "lower", 0},
	{"sim.phase_move_us", "us", "lower", 0},
	{"sim.flits_per_cycle", "count", "higher", 0},
	{"sim.admitted_per_cycle", "count", "higher", 0},
	{"sim.denied_per_cycle", "count", "lower", 0},
	{"sim.inflight_end", "count", "lower", 0},
	// sim, sharded schedule
	{"sim.barrier_wait_b1_us", "us", "lower", 0},
	{"sim.barrier_wait_b2_us", "us", "lower", 0},
	{"sim.barrier_wait_b3_us", "us", "lower", 0},
	{"sim.barrier_wait_b4_us", "us", "lower", 0},
	{"sim.shard_busy_us", "us", "lower", 0},
	{"sim.shard_imbalance", "ratio", "lower", 0},
	{"sim.ring_pushes_per_cycle", "count", "lower", 0},
	{"sim.workers2_speedup", "ratio", "higher", 0},
	// sim, engine state
	{"sim.new_ms", "ms", "lower", 0},
	{"sim.snapshot_ms", "ms", "lower", 0},
	{"sim.restore_ms", "ms", "lower", 0},
	{"sim.canonical_hash_ms", "ms", "lower", 0},
	{"sim.check_invariants_ms", "ms", "lower", 0},
	// injection limiters
	{"core.deny_ratio", "ratio", "lower", 0},
	{"core.deny_rule_a_share", "ratio", "lower", 0},
	{"core.deny_rule_b_share", "ratio", "lower", 0},
	{"core.alo_cycles_per_s", "1/s", "higher", 0},
	{"baseline.none_cycles_per_s", "1/s", "higher", 0},
	{"baseline.lf_cycles_per_s", "1/s", "higher", 0},
	{"baseline.dril_cycles_per_s", "1/s", "higher", 0},
	{"deadlock.recoveries_per_kcycle", "count", "lower", 0},
	// substrate probes
	{"routing.candidates_ns", "ns", "lower", 0},
	{"topology.minimal_directions_ns", "ns", "lower", 0},
	{"traffic.next_ns", "ns", "lower", 0},
	// opt-in layers, cost against the bare engine
	{"metrics.overhead_pct", "%", "lower", 0},
	{"trace.spans_overhead_pct", "%", "lower", 0},
	{"fault.mode_overhead_pct", "%", "lower", 0},
	// checkpoint
	{"checkpoint.encode_mb_per_s", "MB/s", "higher", 0},
	{"checkpoint.decode_mb_per_s", "MB/s", "higher", 0},
	{"checkpoint.bytes", "count", "lower", 0},
	// runners
	{"experiments.point_s_p50", "s", "lower", 0},
	{"experiments.point_s_max", "s", "lower", 0},
	{"experiments.idle_share", "ratio", "lower", 0},
	{"experiments.setup_share", "ratio", "lower", 0},
	{"modelcheck.states", "count", "higher", 0},
	{"modelcheck.edges", "count", "lower", 0},
	{"modelcheck.dup_edge_ratio", "ratio", "lower", 0},
	{"modelcheck.us_per_state", "us", "lower", 0},
	{"modelcheck.new_ms", "ms", "lower", 0},
	{"campaign.point_overhead_ms", "ms", "lower", 0},
	{"campaign.points_per_s", "1/s", "higher", 0},
	// the benchmark itself
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.host_calib_ms", "ms", "lower", 0},
	{"bench.segment_iqr_pct", "%", "lower", 0},
	{"bench.wall_s", "s", "lower", 0},
}

// units maps every catalogued metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, dup := m[d.Name]; dup {
				panic("bench: metric catalogued twice: " + d.Name)
			}
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload reports: the contract's four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a catalogued metric; an uncatalogued name is a bug in the
// benchmark, not a runtime condition.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fillMissing reports 0 for every metric of defs the run did not measure.
func (r *result) fillMissing(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
}
