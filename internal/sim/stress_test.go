package sim

import (
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
)

// TestRandomConfigsKeepInvariants drives the engine across a grid of
// randomized-but-valid configurations — topology shape, virtual-channel
// count, buffer depth, message length, load, limiter, routing — and checks
// the global invariants every cycle. This is the sharpest correctness net
// for the flit pipeline: any double-allocation, credit overflow, path
// mis-tracking or recovery leak trips it.
func TestRandomConfigsKeepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	type variant struct {
		name    string
		mutate  func(*Config)
		cycles  int64
		checkEv int64
	}
	variants := []variant{
		{"tiny-ring-1vc", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 4, 1, 1, 8, 0.8
			c.DetectionThreshold, c.RecoveryDelay = 16, 8
		}, 2500, 1},
		{"ring8-2vc-long", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 8, 1, 2, 32, 0.6
			c.DetectionThreshold, c.RecoveryDelay = 24, 32
		}, 2500, 1},
		{"mesh-deep-buffers", func(c *Config) {
			c.K, c.N, c.VCs, c.BufDepth, c.MsgLen, c.Rate = 4, 2, 3, 8, 16, 1.5
		}, 2000, 3},
		{"shallow-buffers", func(c *Config) {
			c.K, c.N, c.VCs, c.BufDepth, c.MsgLen, c.Rate = 4, 2, 2, 1, 16, 1.2
			c.DetectionThreshold = 16
		}, 2000, 3},
		{"3d-small", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 2, 3, 3, 4, 0.9
		}, 1500, 3},
		{"odd-radix", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 5, 2, 2, 16, 1.0
			c.Pattern = "tornado"
			c.DetectionThreshold = 16
		}, 2000, 3},
		{"single-flit-msgs", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 4, 2, 3, 1, 1.0
		}, 1500, 3},
		{"complement-overload-alo", func(c *Config) {
			c.K, c.N, c.MsgLen, c.Rate = 4, 2, 16, 2.5
			c.Pattern = "complement"
			c.Limiter, c.LimiterName = core.NewALO(), "alo"
		}, 2000, 3},
		{"dor-overload", func(c *Config) {
			c.K, c.N, c.MsgLen, c.Rate = 4, 2, 16, 2.0
			c.Routing = "dor"
		}, 2000, 3},
		{"dril-overload", func(c *Config) {
			c.K, c.N, c.MsgLen, c.Rate = 4, 2, 16, 2.2
			c.Limiter, c.LimiterName = baseline.NewDRIL(), "dril"
		}, 2000, 3},
		{"harsh-recovery-churn", func(c *Config) {
			c.K, c.N, c.VCs, c.MsgLen, c.Rate = 8, 1, 1, 24, 1.2
			c.DetectionThreshold, c.RecoveryDelay = 8, 0
		}, 3000, 1},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 2; seed++ {
				cfg := DefaultConfig()
				cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, v.cycles, 100
				cfg.Seed = seed
				v.mutate(&cfg)
				e, err := New(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for i := int64(0); i < cfg.TotalCycles(); i++ {
					e.Step()
					if i%v.checkEv == 0 {
						if err := e.CheckInvariants(); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, i, err)
						}
					}
				}
				if e.Delivered() == 0 {
					t.Fatalf("seed %d: nothing delivered", seed)
				}
			}
		})
	}
}

// TestDrainToQuiescence verifies that when generation stops, every message
// eventually leaves the network (no stuck flits, no leaked channel
// ownership), even after heavy deadlock-recovery churn.
func TestDrainToQuiescence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K, cfg.N, cfg.VCs = 8, 1, 1
	cfg.MsgLen, cfg.Rate = 24, 1.2
	cfg.DetectionThreshold, cfg.RecoveryDelay = 8, 4
	cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1500, 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: run under heavy load with aggressive recovery churn.
	for i := int64(0); i < 1500; i++ {
		e.Step()
	}
	if e.Recovered() == 0 {
		t.Log("no recoveries during the load phase (unusual but not fatal)")
	}
	// Phase 2: stop generation; the entire backlog must drain.
	e.StopSources()
	deadline := e.Now() + 500_000
	for e.InFlight() > 0 && e.Now() < deadline {
		e.Step()
	}
	if e.InFlight() != 0 {
		sq, rq := e.QueueLengths()
		t.Fatalf("network did not drain: %d in flight (queues %d source, %d recovery)",
			e.InFlight(), sq, rq)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After a full drain every channel must be free and every buffer empty.
	for i := range e.nodes {
		nd := &e.nodes[i]
		for p := 0; p < e.numPhys; p++ {
			if freeOutVCs(e, nd, p) != e.cfg.VCs {
				t.Fatalf("node %d out port %d leaked an allocation", nd.id, p)
			}
		}
		for a, ivc := range e.inOf(nd.id) {
			if !ivc.buf.Empty() {
				t.Fatalf("node %d in[%d][%d] leaked flits", nd.id, a/e.cfg.VCs, a%e.cfg.VCs)
			}
		}
		for c, ec := range e.ejOf(nd.id) {
			if ec.msg != nil {
				t.Fatalf("node %d leaked ejection channel %d", nd.id, c)
			}
		}
		for c, ic := range e.injOf(nd.id) {
			if ic.msg != nil {
				t.Fatalf("node %d leaked injection channel %d", nd.id, c)
			}
		}
	}
}
