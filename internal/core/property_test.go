package core

import (
	"math/rand/v2"
	"testing"

	"wormnet/internal/topology"
)

// specAllow is a direct transliteration of the paper's injection condition,
// kept deliberately naive: rule (a) — every useful physical channel has at
// least one free virtual channel — OR rule (b) — some useful channel is
// completely free. It is the specification the production predicate, the
// ablation variants and the gate circuit are all checked against.
func specAllow(v ChannelView, dst topology.NodeID) bool {
	ruleA := true
	ruleB := false
	for _, p := range v.UsefulPorts(dst) {
		free := v.FreeVCs(p)
		if free == 0 {
			ruleA = false
		}
		if free == v.VCs() {
			ruleB = true
		}
	}
	return ruleA || ruleB
}

// TestALOSpecProperty drives ALO.Allow with randomly generated channel
// states over random router geometries and asserts, for every state, that
// injection is permitted iff the specification predicate holds; that ALO is
// exactly the disjunction of its two ablation rules; and that the Figure-3
// gate circuit agrees on matching geometries.
func TestALOSpecProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 42))
	alo := ALO
	ruleA := RuleAOnly
	ruleB := RuleBOnly
	for trial := 0; trial < 20000; trial++ {
		ports := 1 + rng.IntN(8)
		vcs := 1 + rng.IntN(4)
		free := map[topology.Port]int{}
		for p := 0; p < ports; p++ {
			free[topology.Port(p)] = rng.IntN(vcs + 1)
		}
		// A random subset of the ports is useful, including the empty set
		// (unreachable in the engine, but the predicate must stay total)
		// and duplicate entries (routing functions may repeat a port).
		var useful []topology.Port
		for p := 0; p < ports; p++ {
			if rng.IntN(2) == 0 {
				useful = append(useful, topology.Port(p))
			}
		}
		if len(useful) > 0 && rng.IntN(4) == 0 {
			useful = append(useful, useful[rng.IntN(len(useful))])
		}
		v := &fakeView{useful: useful, free: free, vcs: vcs, ports: ports}

		want := specAllow(v, 1)
		if got := alo.Allow(v, 1); got != want {
			t.Fatalf("trial %d (ports=%d vcs=%d useful=%v free=%v): Allow=%v spec=%v",
				trial, ports, vcs, useful, free, got, want)
		}
		if got := ruleA.Allow(v, 1) || ruleB.Allow(v, 1); got != want {
			t.Fatalf("trial %d: ruleA∨ruleB=%v spec=%v (useful=%v free=%v)",
				trial, got, want, useful, free)
		}
		if got := NewCircuit(ports, vcs).EvalView(v, 1); got != want {
			t.Fatalf("trial %d: circuit=%v spec=%v (ports=%d vcs=%d useful=%v free=%v)",
				trial, got, want, ports, vcs, useful, free)
		}
	}
}

// TestALOMonotoneInFreedom checks a structural consequence of the spec that
// random point sampling alone would miss: freeing one more virtual channel
// on a useful port never turns a permitted injection into a forbidden one.
func TestALOMonotoneInFreedom(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 23))
	alo := ALO
	for trial := 0; trial < 10000; trial++ {
		ports := 1 + rng.IntN(6)
		vcs := 1 + rng.IntN(4)
		free := map[topology.Port]int{}
		var useful []topology.Port
		for p := 0; p < ports; p++ {
			free[topology.Port(p)] = rng.IntN(vcs + 1)
			useful = append(useful, topology.Port(p))
		}
		v := &fakeView{useful: useful, free: free, vcs: vcs, ports: ports}
		before := alo.Allow(v, 1)

		p := topology.Port(rng.IntN(ports))
		if free[p] == vcs {
			continue
		}
		free[p]++
		if before && !alo.Allow(v, 1) {
			t.Fatalf("trial %d: freeing a VC on port %d revoked injection (vcs=%d free=%v)",
				trial, p, vcs, free)
		}
	}
}
