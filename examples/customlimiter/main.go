// Customlimiter: the injection-limitation mechanism is a small interface —
// implement core.Limiter (and optionally core.CycleObserver) to plug your
// own congestion-control policy into the simulator.
//
// This example implements a simple fixed-threshold limiter ("inject only if
// at least K useful virtual channels are free"), wires it into a run, and
// compares it with ALO. It demonstrates exactly why the paper's
// threshold-free design matters: the fixed threshold needs to be tuned per
// pattern, while ALO does not.
//
//	go run ./examples/customlimiter
package main

import (
	"fmt"
	"log"

	"wormnet/internal/core"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// fixedThreshold permits injection only while at least minFree of the
// message's useful virtual output channels are free. It is the kind of
// static mechanism the paper's related-work section criticises: a good
// value for one pattern is wrong for another.
type fixedThreshold struct {
	minFree int
}

// Allow implements core.Limiter.
func (l fixedThreshold) Allow(v core.ChannelView, dst topology.NodeID) bool {
	free := 0
	for _, p := range v.UsefulPorts(dst) {
		free += v.FreeVCs(p)
	}
	return free >= l.minFree
}

// Name implements core.Limiter.
func (l fixedThreshold) Name() string { return fmt.Sprintf("fixed>=%d", l.minFree) }

// newFixed returns a factory building one limiter per node: core.PerNode
// calls the constructor for each node in turn. A stateless limiter like this
// one could also hand every node the same value with core.Shared.
func newFixed(minFree int) core.Factory {
	return core.PerNode(func(topology.NodeID, *topology.Torus, int) core.Limiter {
		return fixedThreshold{minFree: minFree}
	})
}

func main() {
	base := sim.DefaultConfig()
	base.K, base.N = 4, 3
	base.MsgLen = 16
	base.Rate = 1.8 // beyond saturation
	base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 1500, 6000, 500

	limiters := []struct {
		name string
		f    core.Factory
	}{
		{"fixed>=2", newFixed(2)},
		{"fixed>=6", newFixed(6)},
		{"alo", core.NewALO()},
	}

	for _, pattern := range []string{"uniform", "butterfly"} {
		fmt.Printf("\npattern=%s (offered %.1f flits/node/cycle)\n", pattern, base.Rate)
		fmt.Printf("%-10s %10s %10s %10s\n", "limiter", "accepted", "latency", "deadlk%")
		for _, lim := range limiters {
			cfg := base.WithLimiter(lim.name, lim.f)
			cfg.Pattern = pattern
			e, err := sim.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			r := e.Run()
			fmt.Printf("%-10s %10.4f %10.1f %10.3f\n", lim.name, r.Accepted, r.AvgLatency, r.DeadlockPct)
		}
	}
	fmt.Println("\nA threshold tuned for uniform traffic (6 useful channels in 3")
	fmt.Println("dimensions) over- or under-throttles butterfly traffic (which only")
	fmt.Println("uses 2 dimensions); ALO needs no such tuning.")
}
