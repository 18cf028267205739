// Bursty: the paper's motivation (§1) is that real parallel applications
// produce *bursty* traffic whose peaks transiently saturate the network,
// and that saturation episodes inflate execution time long after the burst
// has passed. This example drives the network with on/off modulated sources
// whose long-run average load is safely below saturation but whose
// ON-period peak is far above it, and shows the delivered-traffic timeline
// with and without ALO.
//
//	go run ./examples/bursty
package main

import (
	"fmt"
	"log"
	"strings"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// interval is the width, in cycles, of one bucket of the delivery timeline.
const interval = 500

func main() {
	base := sim.DefaultConfig()
	base.K, base.N = 4, 3 // 64 nodes
	base.Pattern, base.MsgLen = "uniform", 16
	base.Rate = 0.7 // average load ~½ of saturation...
	// Synchronized phases model an application where all ranks communicate
	// together: ON-period peaks at 0.7*2.5 = 1.75 flits/node/cycle, beyond
	// the ~1.3 saturation point.
	base.Burst = traffic.BurstProfile{OnMean: 400, OffMean: 600, Synchronized: true}
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 0, 12000, 0

	fmt.Printf("bursty uniform traffic: average %.2f, peak %.2f flits/node/cycle\n\n",
		base.Rate, base.Rate*base.Burst.PeakFactor())

	for _, mech := range []struct {
		name string
		f    core.Factory
	}{
		{"none", baseline.NewNone()},
		{"alo", core.NewALO()},
	} {
		cfg := base.WithLimiter(mech.name, mech.f)
		e, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Every delivery reaches the listener with its cycle and length: sum
		// the flits into one bucket per interval.
		delivered := make([]int64, cfg.TotalCycles()/interval)
		e.SetListener(trace.Func(func(ev trace.Event) {
			if i := ev.Cycle / interval; ev.Kind == trace.KindDelivered && i < int64(len(delivered)) {
				delivered[i] += int64(ev.Len)
			}
		}))
		r := e.Run()

		fmt.Printf("%s: accepted=%.4f latency=%.1f deadlocks=%.3f%%\n",
			mech.name, r.Accepted, r.AvgLatency, r.DeadlockPct)
		fmt.Println("delivered flits/node/cycle per 500-cycle interval:")
		nodes := float64(e.Topology().Nodes())
		for i, flits := range delivered {
			rate := float64(flits) / interval / nodes
			bar := strings.Repeat("#", int(rate*40))
			fmt.Printf("  [%5d-%5d] %.3f %s\n", i*interval, (i+1)*interval-1, rate, bar)
		}
		fmt.Println()
	}
	fmt.Println("Both timelines show the bursts; the difference is what happens")
	fmt.Println("inside them: without limitation the network crosses saturation,")
	fmt.Println("messages knot, the detector fires and delivery dips below the")
	fmt.Println("burst rate. ALO clips the injected peak at the sustainable level,")
	fmt.Println("so the backlog drains during the OFF periods instead.")
}
