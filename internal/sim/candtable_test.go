package sim

import (
	"testing"

	"wormnet/internal/fault"
	"wormnet/internal/topology"
)

// BenchmarkColdNew times sim.New of the 8-ary 3-cube on a cold shape cache:
// the candidate table's build included.
func BenchmarkColdNew(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forgetShape(shapeKey{cfg.K, cfg.N, cfg.VCs, cfg.Routing})
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkEpochFlip times one reconfiguration of the 8-ary 3-cube with one
// link down: the candidate table for the new mask and the set-id sweep.
func BenchmarkEpochFlip(b *testing.B) {
	cfg := DefaultConfig()
	up := topology.PortFor(0, topology.Plus)
	cfg.Faults = (&fault.Schedule{}).FailLink(1, 0, up)
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Step()
	e.Step()
	if e.Epoch() != 1 {
		b.Fatalf("epoch %d after the failure, want 1", e.Epoch())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.reconfigure()
	}
}

// BenchmarkWarmNew times sim.New of the 8-ary 3-cube on a warm shape cache.
func BenchmarkWarmNew(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}
