package sim

import (
	"testing"

	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// TestZeroLoadLatency checks the engine from outside the goldens it recorded
// from itself, against the pipeline of DESIGN §3: a header spends one cycle
// being routed at every router it visits (the source's output claim, each
// hop's, the destination's ejection claim) and one crossing the switch and
// the link out, and the body follows a flit a cycle. With one message in
// flight nothing else contends, so a message of L flits over H minimal hops
// is delivered 2H+L cycles after it is generated. Every destination of the
// 8-ary 3-cube from node 0, under each routing engine, at both of the
// paper's message lengths.
func TestZeroLoadLatency(t *testing.T) {
	for _, routing := range []string{"tfar", "dor", "duato"} {
		for _, length := range []int{16, 64} {
			cfg := DefaultConfig()
			cfg.Routing, cfg.MsgLen = routing, length
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.StopSources()
			topo := e.Topology()
			for dst := topology.NodeID(1); int(dst) < topo.Nodes(); dst++ {
				hops := topo.Distance(0, dst)
				m := e.Inject(0, dst, length)
				for m.State != message.StateDelivered {
					if e.Now()-m.GenTime > int64(4*(hops+length)) {
						t.Fatalf("%s L=%d: message to %d undelivered after %d cycles", routing, length, dst, e.Now()-m.GenTime)
					}
					e.Step()
				}
				if got, want := m.Latency(), int64(2*hops+length); got != want {
					t.Errorf("%s L=%d: to node %d (%d hops) in %d cycles, want 2H+L = %d",
						routing, length, dst, hops, got, want)
				}
			}
			e.Close()
		}
	}
}

// TestLowLoadLatencyNearZeroLoad checks Fig. 5's lowest point, rate 0.02 on
// the 8-ary 3-cube (uniform, 16 flits), against the same closed form: at 1 %
// of the bisection limit a message almost never waits, so its mean latency
// from generation sits just above 2H+L at the uniform mean distance. Uniform
// traffic never addresses its own source, so H is the k/4 hops a dimension
// averages over all 512 nodes, times 3 dimensions, spread over the 511 others.
// The mean may exceed the zero-load form by at most 5 % (seeds 1 and 2 read
// 28.6 and 28.5 cycles).
func TestLowLoadLatencyNearZeroLoad(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		cfg := DefaultConfig()
		cfg.Rate, cfg.Seed = 0.02, seed
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run()
		e.Close()
		nodes := float64(e.Topology().Nodes())
		hops := float64(cfg.N*cfg.K/4) * nodes / (nodes - 1)
		zeroLoad := 2*hops + float64(cfg.MsgLen)
		if res.AvgLatency < zeroLoad || res.AvgLatency > 1.05*zeroLoad {
			t.Errorf("seed %d: mean latency %.2f cycles, want within [%.2f, %.2f] (2H+L, H = %.3f hops, and 5 %% over)",
				seed, res.AvgLatency, zeroLoad, 1.05*zeroLoad, hops)
		}
	}
}
