package sim

import (
	"fmt"
	"runtime"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/stats"
	"wormnet/internal/trace"
)

// spanTap records every finished span in completion order. Records are
// transient, so the tap keeps deep copies.
type spanTap struct {
	spans []*trace.SpanRecord
}

func (s *spanTap) SpanDone(rec *trace.SpanRecord) { s.spans = append(s.spans, rec.Clone()) }

// runSpanned runs cfg to completion with metrics AND span tracking enabled
// (dense span sampling so every scenario produces records) and returns the
// summary, event stream, counters, registry and the finished-span stream.
func runSpanned(t *testing.T, cfg Config, workers int) (stats.Result, []trace.Event, [6]int64, *metrics.Registry, []*trace.SpanRecord) {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 64)
	tap := &spanTap{}
	e.EnableSpans(reg, 4, tap)
	etap := &eventTap{}
	e.SetListener(etap)
	r := e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("workers=%d: invariants violated at end of run: %v", workers, err)
	}
	counters := [6]int64{
		e.Generated(), e.Delivered(), e.Recovered(),
		e.Aborted(), e.Retried(), e.Dropped(),
	}
	return r, etap.events, counters, reg, tap.spans
}

// TestSpanDeterminism is the span layer's core contract, mirroring
// TestMetricsDeterminism: a run with span tracking enabled produces
// bit-identical results — summary, counters, full event stream — to the same
// run without it, at workers 1 and 4; and the finished-span stream itself is
// bit-identical across worker counts (spans finish in serial commit order on
// every path) and, on the rows the serial reference recorded it for, to that
// recording.
func TestSpanDeterminism(t *testing.T) {
	for name, cfg := range equivalenceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			baseRes, _, baseEvents, baseCounters := runTraced(t, cfg, 1)
			var baseSpans []*trace.SpanRecord
			for _, workers := range []int{1, 4} {
				res, events, counters, _, spans := runSpanned(t, cfg, workers)
				if res != baseRes {
					t.Errorf("workers=%d spanned: result diverged:\n got  %+v\n want %+v",
						workers, res, baseRes)
				}
				if counters != baseCounters {
					t.Errorf("workers=%d spanned: counters diverged: got %v want %v",
						workers, counters, baseCounters)
				}
				if len(events) != len(baseEvents) {
					t.Errorf("workers=%d spanned: %d events, plain run emitted %d",
						workers, len(events), len(baseEvents))
					continue
				}
				for i := range events {
					if events[i] != baseEvents[i] {
						t.Errorf("workers=%d spanned: event %d diverged:\n got  %+v\n want %+v",
							workers, i, events[i], baseEvents[i])
						break
					}
				}
				if len(spans) == 0 {
					t.Fatalf("workers=%d: no spans finished", workers)
				}
				if want := serialReference(t)[name]; want.Spans > 0 {
					checkSpans(t, fmt.Sprintf("workers=%d", workers), spans, want)
				}
				if baseSpans == nil {
					baseSpans = spans
					continue
				}
				if len(spans) != len(baseSpans) {
					t.Errorf("workers=%d: %d spans, workers=1 produced %d",
						workers, len(spans), len(baseSpans))
					continue
				}
				for i := range spans {
					if !spanEqual(spans[i], baseSpans[i]) {
						t.Errorf("workers=%d: span %d diverged:\n got  %+v\n want %+v",
							workers, i, spans[i], baseSpans[i])
						break
					}
				}
			}
		})
	}
}

// spanEqual compares two span records field by field, hops included.
func spanEqual(a, b *trace.SpanRecord) bool {
	if a.ID != b.ID || a.Src != b.Src || a.Dst != b.Dst || a.Len != b.Len ||
		a.Gen != b.Gen || a.Admit != b.Admit || a.Inject != b.Inject || a.Deliver != b.Deliver ||
		a.Denies != b.Denies || a.DeniesRuleA != b.DeniesRuleA || a.DeniesRuleB != b.DeniesRuleB ||
		a.Recoveries != b.Recoveries || a.Retries != b.Retries || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

// TestSpansPopulated checks span records and aggregates carry real data on a
// saturated ALO run: every record is well-formed (sampling selected its ID,
// timestamps are ordered, hops alternate arrive/alloc consistently),
// denials show up with rule attribution, and the registered sim_span_*
// series are non-trivial.
func TestSpansPopulated(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 1.5 // past saturation: ALO must throttle
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 2000, 200
	_, events, _, reg, spans := runSpanned(t, cfg, 1)

	if len(spans) == 0 {
		t.Fatal("saturated run finished no spans")
	}
	ord := generationOrder(events)
	var delivered, denied int
	for _, s := range spans {
		if ord[s.ID]%4 != 0 {
			t.Fatalf("span for unsampled message %d", s.ID)
		}
		if s.Gen < 0 {
			t.Fatalf("span %d missing generation time", s.ID)
		}
		if s.Admit >= 0 && s.Admit < s.Gen {
			t.Fatalf("span %d admitted before generation: %+v", s.ID, s)
		}
		if s.Deliver >= 0 {
			delivered++
			if s.Admit < 0 || s.Deliver < s.Admit {
				t.Fatalf("delivered span %d has disordered times: %+v", s.ID, s)
			}
			if len(s.Hops) == 0 {
				t.Fatalf("delivered span %d has no hops", s.ID)
			}
			if qw := s.QueueWait(); qw < 0 {
				t.Fatalf("delivered span %d has negative queue wait", s.ID)
			}
		}
		for _, h := range s.Hops {
			if h.Alloc >= 0 && h.Alloc < h.Arrive {
				t.Fatalf("span %d hop granted before arrival: %+v", s.ID, h)
			}
		}
		if s.Denies > 0 {
			denied++
			// ALO denial means both rules failed.
			if s.DeniesRuleA != s.Denies || s.DeniesRuleB != s.Denies {
				t.Fatalf("span %d: ALO denies %d but rules a=%d b=%d",
					s.ID, s.Denies, s.DeniesRuleA, s.DeniesRuleB)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered spans")
	}
	if denied == 0 {
		t.Fatal("saturated ALO run produced no span with denials")
	}

	if n := metricValue(t, reg, "sim_spans_sampled_total"); n == 0 {
		t.Error("sampled counter empty")
	}
	if n := metricValue(t, reg, "sim_spans_completed_total"); int(n) != delivered {
		t.Errorf("completed counter %v, want %d delivered spans", n, delivered)
	}
	for _, name := range []string{
		"sim_span_queue_wait_cycles", "sim_span_hop_block_cycles",
		"sim_span_drain_cycles", "sim_span_net_latency_cycles",
		"sim_span_latency_cycles", "sim_span_hops",
	} {
		if n := metricValue(t, reg, name); n == 0 {
			t.Errorf("%s histogram empty", name)
		}
	}
}

// generationOrder maps each message id of a run's event stream to the number
// of messages generated before it.
func generationOrder(events []trace.Event) map[int64]int64 {
	ord := map[int64]int64{}
	for _, ev := range events {
		if ev.Kind == trace.KindGenerated {
			ord[ev.Msg] = int64(len(ord))
		}
	}
	return ord
}

// TestSpanSampling pins the deterministic sampling rule: with period N only
// every N-th generated message is tracked (the first, the N+1-th, ...), and
// every tracked delivery reaches the sink.
func TestSpanSampling(t *testing.T) {
	cfg := QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1500, 300
	cfg.Workers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tap, etap := &spanTap{}, &eventTap{}
	e.EnableSpans(nil, 8, tap) // sink-only: no registry attached
	e.SetListener(etap)
	e.Run()
	if len(tap.spans) == 0 {
		t.Fatal("no spans reached the sink")
	}
	ord := generationOrder(etap.events)
	seen := map[int64]bool{}
	for _, s := range tap.spans {
		if ord[s.ID]%8 != 0 {
			t.Fatalf("sampling leak: span for message %d with period 8", s.ID)
		}
		if seen[s.ID] {
			t.Fatalf("message %d finished two spans", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestSpanSyncProfilePopulated checks the parallel engine's sync-profile
// series fill in on a worker-pool run: barrier waits, shard busy times and
// the ring counters. GOMAXPROCS is raised so that New builds the four shards
// on any host (one shard has no barrier waits to measure).
func TestSpanSyncProfilePopulated(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	cfg := QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 800, 100
	_, _, _, reg, _ := runSpanned(t, cfg, 4)
	if n := metricValue(t, reg, "sim_ring_pushes_total"); n == 0 {
		t.Error("no cross-shard ring pushes recorded on a sharded torus run")
	}
	for _, name := range []string{
		"sim_barrier_wait_b1_ns", "sim_barrier_wait_b2_ns",
		"sim_barrier_wait_b3_ns", "sim_barrier_wait_b4_ns",
		"sim_shard_busy_ns",
	} {
		if n := metricValue(t, reg, name); n == 0 {
			t.Errorf("%s empty on a workers=4 run", name)
		}
	}
}
