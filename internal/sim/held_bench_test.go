package sim

import (
	"testing"

	"wormnet/internal/baseline"
)

// BenchmarkKneeWalks times the walks over the knee's whole network that a
// snapshot and an invariant check make — held, which both start from,
// SnapshotInto kept storage and CheckInvariants — on the 8-ary 3-cube at rate
// 0.65 without a limiter (bench's knee-serial) after 2 000 cycles.
func BenchmarkKneeWalks(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Rate = 0.65
	cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for e.Now() < 2000 {
		e.Step()
	}
	b.Run("held", func(b *testing.B) {
		for range b.N {
			e.held()
		}
	})
	b.Run("SnapshotInto", func(b *testing.B) {
		var s Snapshot
		for range b.N {
			if err := e.SnapshotInto(&s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CheckInvariants", func(b *testing.B) {
		for range b.N {
			if err := e.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
