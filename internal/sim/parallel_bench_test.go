package sim

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkPhaseBarrier measures one barrier round — arrive, release, wait
// — across the shard counts the engine uses, with the same adaptive spin
// budget newParRuntime would pick on this host. ns/op is the pure
// synchronisation cost the cycle pays per barrier (4 per steady-state
// cycle); multiplying it out against the knee-workers2 ledger row's cycles/s
// (bash bench/run.sh) separates sync overhead from per-shard work.
func BenchmarkPhaseBarrier(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var bar phaseBarrier
			bar.n = int32(shards)
			bar.spin = barrierSpin(shards)
			var wg sync.WaitGroup
			for id := 1; id < shards; id++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var gen uint32
					for i := 0; i < b.N; i++ {
						gen++
						if bar.arrive() {
							bar.release(gen)
						} else {
							bar.wait(gen)
						}
					}
				}()
			}
			var gen uint32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen++
				if bar.arrive() {
					bar.release(gen)
				} else {
					bar.wait(gen)
				}
			}
			b.StopTimer()
			wg.Wait()
		})
	}
}
