// Quickstart: build a wormhole network simulation, run it, and read the
// paper's performance measures.
//
// This is the smallest end-to-end use of the library: an 8-ary 3-cube under
// uniform traffic at a moderate load, with the ALO injection-limitation
// mechanism protecting the network from saturation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wormnet/internal/core"
	"wormnet/internal/sim"
)

func main() {
	// Start from the paper's standard configuration (8-ary 3-cube, 3 VCs
	// with 4-flit buffers, TFAR routing, FC3D detection, software recovery)
	// and pick a workload.
	cfg := sim.DefaultConfig()
	cfg.Pattern = "uniform"
	cfg.MsgLen = 16
	cfg.Rate = 0.4 // flits/node/cycle offered
	cfg.Limiter, cfg.LimiterName = core.NewALO(), "alo"

	// Keep the quickstart fast: a shorter measurement window than the
	// evaluation harness uses.
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 4000, 500

	engine, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	result := engine.Run()

	fmt.Printf("simulated %s for %d cycles\n", engine.Topology(), cfg.TotalCycles())
	fmt.Printf("  average latency : %.1f cycles (std %.1f)\n", result.AvgLatency, result.StdLatency)
	fmt.Printf("  accepted traffic: %.4f flits/node/cycle (offered %.2f)\n", result.Accepted, cfg.Rate)
	fmt.Printf("  deadlocks       : %.3f%% of injected messages\n", result.DeadlockPct)
	fmt.Printf("  delivered       : %d messages in the measurement window\n", result.Delivered)

	// The collector exposes more detail than the summary: e.g. the latency
	// distribution.
	col := engine.Collector()
	fmt.Printf("  p99 latency     : <= %.0f cycles\n", col.Hist.Quantile(0.99, col.Latency.Max()))
	fmt.Printf("  min/max latency : %.0f / %.0f cycles\n", col.Latency.Min(), col.Latency.Max())
}
