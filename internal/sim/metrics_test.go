package sim

import (
	"fmt"
	"runtime"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/stats"
	"wormnet/internal/trace"
)

// runObserved runs cfg to completion with the full observability stack
// attached — metrics registry, dense sampling, sample hook, trace listener —
// and returns the summary, event stream and counters exactly like runTraced,
// plus the registry for inspection.
func runObserved(t *testing.T, cfg Config, workers int) (stats.Result, []trace.Event, [6]int64, *metrics.Registry) {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 64)
	samples := 0
	e.SetSampleHook(func(int64) { samples++ })
	tap := &eventTap{}
	e.SetListener(tap)
	r := e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("workers=%d: invariants violated at end of run: %v", workers, err)
	}
	if samples == 0 {
		t.Fatal("sample hook never fired")
	}
	counters := [6]int64{
		e.Generated(), e.Delivered(), e.Recovered(),
		e.Aborted(), e.Retried(), e.Dropped(),
	}
	return r, tap.events, counters, reg
}

// TestMetricsDeterminism is the observability layer's core contract: a run
// with metrics, sampling and export hooks enabled produces bit-identical
// results — summary statistics, all-time counters, and the full trace event
// stream — to the same run without any of it, on one shard and on four
// alike. The metrics layer may read the simulation;
// it must never steer it.
func TestMetricsDeterminism(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			baseRes, _, baseEvents, baseCounters := runTraced(t, cfg, 1)
			for _, workers := range []int{1, 4} {
				res, events, counters, _ := runObserved(t, cfg, workers)
				if res != baseRes {
					t.Errorf("workers=%d observed: result diverged:\n got  %+v\n want %+v",
						workers, res, baseRes)
				}
				if counters != baseCounters {
					t.Errorf("workers=%d observed: counters diverged: got %v want %v",
						workers, counters, baseCounters)
				}
				if len(events) != len(baseEvents) {
					t.Errorf("workers=%d observed: %d events, plain run emitted %d",
						workers, len(events), len(baseEvents))
					continue
				}
				for i := range events {
					if events[i] != baseEvents[i] {
						t.Errorf("workers=%d observed: event %d diverged:\n got  %+v\n want %+v",
							workers, i, events[i], baseEvents[i])
						break
					}
				}
			}
		})
	}
}

// metricValue returns the sampled value of a metric by name.
func metricValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			if s.Kind == metrics.KindHistogram {
				return float64(s.N)
			}
			return s.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

// TestMetricsPopulated checks the registered series carry real data after a
// saturated ALO run: mirrored totals match the engine counters, the limiter
// denial counters fire (with ALO a denial means both rules failed, so the
// per-rule counters equal the total), and the sampled gauges and timing
// histograms — all five phase timers included — are non-trivial: on one
// shard, on the one shard that Workers=2 builds on a single P, and on two
// shards.
func TestMetricsPopulated(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	for _, tc := range []struct{ workers, procs, shards int }{{1, restore, 1}, {2, 1, 1}, {2, 2, 2}} {
		t.Run(fmt.Sprintf("workers=%d/GOMAXPROCS=%d", tc.workers, tc.procs), func(t *testing.T) {
			runtime.GOMAXPROCS(tc.procs)
			testMetricsPopulated(t, tc.workers, tc.shards)
		})
	}
}

func testMetricsPopulated(t *testing.T, workers, shards int) {
	cfg := QuickConfig()
	cfg.Rate = 1.5 // past saturation: ALO must throttle
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2000, 200
	_, _, counters, reg := runObserved(t, cfg, workers)

	if got := metricValue(t, reg, "sim_messages_generated_total"); int64(got) != counters[0] {
		t.Errorf("generated mirror = %v, engine counter %d", got, counters[0])
	}
	if got := metricValue(t, reg, "sim_messages_delivered_total"); int64(got) != counters[1] {
		t.Errorf("delivered mirror = %v, engine counter %d", got, counters[1])
	}
	denied := metricValue(t, reg, "sim_injection_denied_total")
	if denied == 0 {
		t.Fatal("saturated ALO run recorded no denials")
	}
	if a := metricValue(t, reg, "sim_injection_deny_rule_a_total"); a != denied {
		t.Errorf("ALO denial implies rule (a) failed: ruleA=%v denied=%v", a, denied)
	}
	if b := metricValue(t, reg, "sim_injection_deny_rule_b_total"); b != denied {
		t.Errorf("ALO denial implies rule (b) failed: ruleB=%v denied=%v", b, denied)
	}
	if adm := metricValue(t, reg, "sim_injection_admitted_total"); adm == 0 {
		t.Error("no admissions recorded")
	}
	if fl := metricValue(t, reg, "sim_flits_moved_total"); fl == 0 {
		t.Error("no flit movement recorded")
	}
	if occ := metricValue(t, reg, "sim_input_vc_occupancy_ratio"); occ < 0 || occ > 1 {
		t.Errorf("occupancy ratio %v outside [0,1]", occ)
	}
	samples := metricValue(t, reg, "sim_cycle_ns")
	for _, ph := range []string{"generate", "inject", "route", "switch", "move"} {
		if n := metricValue(t, reg, "sim_phase_"+ph+"_ns"); n == 0 || n != samples {
			t.Errorf("sim_phase_%s_ns holds %v samples, sim_cycle_ns %v", ph, n, samples)
		}
	}
	// Shard busy time: one sample per shard and sampled cycle, on two shards
	// or more — so the sample count says how many shards ran.
	busy := 0.0
	if shards > 1 {
		busy = samples * float64(shards)
	}
	if n := metricValue(t, reg, "sim_shard_busy_ns"); n != busy {
		t.Errorf("sim_shard_busy_ns holds %v samples over %v sampled cycles, want %d shards' worth", n, samples, shards)
	}
	if n := metricValue(t, reg, "sim_node_queue_depth"); n == 0 {
		t.Error("per-node queue-depth histogram empty")
	}
}

// TestSnapshotMirrorsItsCycle snapshots a metrics-enabled engine between two
// samples: the registry the snapshot carries mirrors the six totals of the
// snapshot's own cycle, not of the last sample, and taking it neither fires
// the sample hook nor moves a sampled gauge.
func TestSnapshotMirrorsItsCycle(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 1.5
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.EnableMetrics(metrics.NewRegistry(), DefaultMetricsSampleEvery)
	samples := 0
	e.SetSampleHook(func(int64) { samples++ })
	for e.Now() < DefaultMetricsSampleEvery+DefaultMetricsSampleEvery/2 {
		e.Step()
	}
	before := samples
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if samples != before {
		t.Error("the snapshot fired the sample hook")
	}
	mirrors := map[string]int64{
		"sim_messages_generated_total":  snap.Generated,
		"sim_messages_delivered_total":  snap.Delivered,
		"sim_deadlock_recoveries_total": snap.Recovered,
		"sim_messages_aborted_total":    snap.Aborted,
		"sim_messages_retried_total":    snap.Retried,
		"sim_messages_dropped_total":    snap.Dropped,
	}
	for _, m := range snap.Metrics {
		if m.Name == "sim_cycle" && m.Value != DefaultMetricsSampleEvery {
			t.Errorf("sim_cycle reads %v at cycle %d, want the last sample's %d", m.Value, snap.Now, DefaultMetricsSampleEvery)
		}
		if want, ok := mirrors[m.Name]; ok {
			if m.Value != float64(want) {
				t.Errorf("cycle %d: %s mirrors %v, the snapshot's total is %d", snap.Now, m.Name, m.Value, want)
			}
			delete(mirrors, m.Name)
		}
	}
	if len(mirrors) != 0 {
		t.Errorf("the snapshot's registry lacks %v", mirrors)
	}
}

// kindCounter is a listener that counts the events of each kind.
type kindCounter [trace.NumKinds]int64

func (c *kindCounter) Emit(ev trace.Event) { c[ev.Kind]++ }

// denyTally is a span sink that sums the denials of the spans it is handed.
type denyTally int64

func (d *denyTally) SpanDone(rec *trace.SpanRecord) { *d += denyTally(rec.Denies) }

// TestObserversCountOneStream holds every observer of a run to the one stream
// Engine.record feeds them: with a listener, a registry and spans attached,
// the listener's count of each kind equals the engine's all-time total and
// the registry's mirror of it, and its throttle events equal the registry's
// denials, on one shard and on four. Without the listener the throttle
// records still reach the registry and the spans, in the same numbers.
func TestObserversCountOneStream(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(max(restore, 2)) // a single P builds one shard whatever Workers says
	cfgs := equivalenceConfigs()
	for _, name := range []string{"faults-storm", "saturated-alo"} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			observe := func(l trace.Listener) (*Engine, *metrics.Registry, denyTally) {
				cfg := cfgs[name]
				cfg.Workers = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(e.par.shards); got != workers {
					t.Fatalf("%s: built %d shards", label, got)
				}
				var denies denyTally
				reg := metrics.NewRegistry()
				e.EnableMetrics(reg, 64)
				e.EnableSpans(reg, 4, &denies)
				e.SetListener(l)
				e.Run()
				e.Close()
				return e, reg, denies
			}
			var seen kindCounter
			e, reg, denies := observe(&seen)
			for _, c := range []struct {
				kind   trace.Kind
				total  int64
				series string
			}{
				{trace.KindGenerated, e.Generated(), "sim_messages_generated_total"},
				{trace.KindDelivered, e.Delivered(), "sim_messages_delivered_total"},
				{trace.KindDeadlock, e.Recovered(), "sim_deadlock_recoveries_total"},
				{trace.KindAborted, e.Aborted(), "sim_messages_aborted_total"},
				{trace.KindRetried, e.Retried(), "sim_messages_retried_total"},
				{trace.KindDropped, e.Dropped(), "sim_messages_dropped_total"},
			} {
				if mirror := metricValue(t, reg, c.series); seen[c.kind] != c.total || mirror != float64(c.total) {
					t.Errorf("%s: %d %v events, engine total %d, %s %v", label, seen[c.kind], c.kind, c.total, c.series, mirror)
				}
			}
			denied := metricValue(t, reg, "sim_injection_denied_total")
			if float64(seen[trace.KindThrottled]) != denied {
				t.Errorf("%s: %d throttle events, sim_injection_denied_total %v", label, seen[trace.KindThrottled], denied)
			}
			_, bare, bareDenies := observe(nil)
			if got := metricValue(t, bare, "sim_injection_denied_total"); got != denied || bareDenies != denies {
				t.Errorf("%s without a listener: sim_injection_denied_total %v and %d span denials, with one %v and %d",
					label, got, bareDenies, denied, denies)
			}
			if name == "saturated-alo" && (denied == 0 || denies == 0) {
				t.Errorf("%s: %v denials, %d on spans; the comparison is vacuous", label, denied, denies)
			}
			if name == "faults-storm" && e.Aborted() == 0 {
				t.Errorf("%s: no fault kills; the comparison is vacuous", label)
			}
		}
	}
}

// TestMetricsParallelCycleTiming checks a sharded run records whole-cycle
// wall time and flit movement.
func TestMetricsParallelCycleTiming(t *testing.T) {
	cfg := QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 800, 100
	_, _, _, reg := runObserved(t, cfg, 4)
	if n := metricValue(t, reg, "sim_cycle_ns"); n == 0 {
		t.Error("parallel run recorded no cycle timing samples")
	}
	if fl := metricValue(t, reg, "sim_flits_moved_total"); fl == 0 {
		t.Error("parallel run recorded no flit movement")
	}
}

// TestMetricsSampleHook pins the sampling cadence: the hook fires exactly on
// the cycles where now % every == 0, in order, on the simulation goroutine.
func TestMetricsSampleHook(t *testing.T) {
	cfg := QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 256, 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableMetrics(metrics.NewRegistry(), 100)
	var fired []int64
	e.SetSampleHook(func(cycle int64) { fired = append(fired, cycle) })
	for i := 0; i < 256; i++ {
		e.Step()
	}
	want := []int64{0, 100, 200}
	if len(fired) != len(want) {
		t.Fatalf("hook fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hook fired at %v, want %v", fired, want)
		}
	}
	// Detaching the registry silences both sampling and the hook.
	e.EnableMetrics(nil, 0)
	for i := 0; i < 256; i++ {
		e.Step()
	}
	if len(fired) != len(want) {
		t.Errorf("hook fired after detach: %v", fired)
	}
}
