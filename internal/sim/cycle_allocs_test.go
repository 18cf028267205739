package sim

import (
	"runtime"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/metrics"
	"wormnet/internal/topology"
)

// TestSteadyStateCycleAllocs pins that a steady-state cycle allocates nothing,
// plain or instrumented, on one shard and on two: message records are pooled,
// metric storage is allocated at registration, span records are free-listed
// and the shards' rings and barriers are built by New. The operating point is
// the knee of the default 8-ary 3-cube (rate 0.65, no limiter) after 2 000
// warm-up cycles; past saturation the in-flight population grows without bound
// and no cycle is steady. AllocsPerRun truncates the mean like allocs/op does,
// so a pool that grows by a slab now and then passes and an object a cycle
// fails. GOMAXPROCS is raised so that New builds the two shards on any host.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	for _, row := range []struct {
		name           string
		shards         int
		metrics, spans bool
	}{
		{"plain", 1, false, false},
		{"metrics", 1, true, false},
		{"spans", 1, true, true},
		{"plain-2shards", 2, false, false},
		{"spans-2shards", 2, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Rate = 0.65
			cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1<<40, 0
			cfg.Workers = row.shards
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := len(e.par.shards); got != row.shards {
				t.Fatalf("engine built %d shards, want %d", got, row.shards)
			}
			if row.metrics {
				reg := metrics.NewRegistry()
				e.EnableMetrics(reg, DefaultMetricsSampleEvery)
				if row.spans {
					e.EnableSpans(reg, DefaultSpanSampleEvery, nil)
				}
			}
			for i := 0; i < 2000; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(500, e.Step); allocs != 0 {
				t.Errorf("a steady-state cycle allocates %.0f objects, want 0", allocs)
			}
		})
	}
}

// TestFirstRecoveryAllocs pins that a node's first recovered message costs no
// object: every recovery list is a capped cut of one array New makes. In the
// saturated steady state of the default 8-ary 3-cube (rate 0.9 with ALO, 2 000
// cycles in), seventeen messages whose header sits in an input buffer of a node
// with an empty recovery list are recovered there, each at its own node: one
// to warm up, then sixteen counted by AllocsPerRun with the collector off. Its
// count is whole objects per recovery, and so the odd object the runtime or
// another goroutine of the test binary allocates meanwhile (the process-wide
// count caught one now and then) is not charged to them.
func TestFirstRecoveryAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	cfg := DefaultConfig()
	cfg.Rate = 0.9
	cfg.Limiter, cfg.LimiterName = core.NewALO(), "alo"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1<<40, 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	const counted = 16
	var victims []heldMsg
	taken := make(map[topology.NodeID]bool)
	for _, h := range e.held() {
		if nd := h.head.nd; nd != nil && !h.head.inj && len(nd.recovery) == 0 && !taken[nd.id] && len(victims) <= counted {
			taken[nd.id] = true
			victims = append(victims, h)
		}
	}
	if len(victims) <= counted {
		t.Fatalf("only %d headers in input buffers of nodes with empty recovery lists", len(victims))
	}
	next := 0
	allocs := allocsWithoutGC(counted, func() {
		h := victims[next]
		next++
		e.recover(h.m, h.head.nd)
	})
	if allocs != 0 || next != len(victims) {
		t.Errorf("%d first recoveries allocated %.0f objects each, want 0", next, allocs)
	}
	for _, h := range victims {
		if len(h.head.nd.recovery) != 1 {
			t.Fatalf("node %d: %d recovery entries after its first recovery", h.head.nd.id, len(h.head.nd.recovery))
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
