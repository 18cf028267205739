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
