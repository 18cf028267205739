package routing

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"wormnet/internal/topology"
)

// TestCandidatesPurity pins the reconfiguration contract stated on
// Algorithm: Candidates is a pure function of (cur, dst, liveness). The
// simulation engine rebuilds its candidate table from Candidates at every
// routing-epoch flip, so (a) repeated calls must agree exactly, and (b)
// failing a set of components and then repairing them all must restore
// every candidate set to its fault-free value — for every engine, every
// (cur, dst) pair, at each stage of the Down→Up round trip.
func TestCandidatesPurity(t *testing.T) {
	topo := topology.New(4, 2)
	up0 := topology.PortFor(0, topology.Plus)
	dn1 := topology.PortFor(1, topology.Minus)

	engines := map[string]Algorithm{
		"tfar":  NewTFAR(topo, 3),
		"dor":   NewDOR(topo, 3),
		"duato": NewDuato(topo, 3),
	}
	for name, alg := range engines {
		t.Run(name, func(t *testing.T) {
			live := topology.NewLiveness(topo)
			alg.(FaultAware).SetLiveness(live)

			snapshot := func() map[[2]topology.NodeID][]Candidate {
				m := make(map[[2]topology.NodeID][]Candidate)
				for cur := 0; cur < topo.Nodes(); cur++ {
					for dst := 0; dst < topo.Nodes(); dst++ {
						c, d := topology.NodeID(cur), topology.NodeID(dst)
						m[[2]topology.NodeID{c, d}] = alg.Candidates(c, d, nil)
					}
				}
				return m
			}
			equal := func(a, b map[[2]topology.NodeID][]Candidate) bool {
				for k, av := range a {
					bv := b[k]
					if len(av) != len(bv) {
						return false
					}
					for i := range av {
						if av[i] != bv[i] {
							return false
						}
					}
				}
				return true
			}

			healthy := snapshot()
			if !equal(healthy, snapshot()) {
				t.Fatal("healthy: repeated calls disagree; Candidates is stateful")
			}

			live.SetLink(1, up0, false)
			live.SetLink(6, dn1, false)
			live.SetRouter(11, false)
			degraded := snapshot()
			if !equal(degraded, snapshot()) {
				t.Fatal("degraded: repeated calls disagree; Candidates is stateful")
			}
			if equal(healthy, degraded) {
				t.Fatal("faults changed nothing; test premise broken")
			}

			// Heal in a different order than the failures were applied.
			live.SetRouter(11, true)
			live.SetLink(6, dn1, true)
			live.SetLink(1, up0, true)
			if !live.AllAlive() {
				t.Fatal("mask not fully healed")
			}
			if !equal(healthy, snapshot()) {
				t.Fatal("healed candidate sets differ from fault-free ones; repair is not exact")
			}
		})
	}
}

// TestCandidatesFollowOffsetClass pins the two facts the simulator's
// candidate table is built on, for every engine on k in {2, 3, 4, 8} and n in
// {1, 2, 3}:
//
//   - a pair's healthy set equals that of the representative pair of its
//     offset class: per dimension the smaller coordinate moved to 0, the
//     difference b-a kept (which fixes both the offset mod k and a > b);
//   - under random link and router masks, a pair's set is its healthy set
//     restricted to cur's live output ports, in the same order.
func TestCandidatesFollowOffsetClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for _, k := range []int{2, 3, 4, 8} {
		for n := 1; n <= 3; n++ {
			topo := topology.New(k, n)
			engines := map[string]Algorithm{
				"tfar":  NewTFAR(topo, 3),
				"dor":   NewDOR(topo, 3),
				"duato": NewDuato(topo, 3),
			}
			for name, alg := range engines {
				t.Run(fmt.Sprintf("%s/%d-ary_%d-cube", name, k, n), func(t *testing.T) {
					nodes := topo.Nodes()
					healthy := make([][]Candidate, nodes*nodes)
					cur, dst := make([]int, n), make([]int, n)
					for c := 0; c < nodes; c++ {
						for d := 0; d < nodes; d++ {
							for dim := 0; dim < n; dim++ {
								diff := topo.Coord(topology.NodeID(d), dim) - topo.Coord(topology.NodeID(c), dim)
								cur[dim], dst[dim] = max(0, -diff), max(0, diff)
							}
							got := alg.Candidates(topology.NodeID(c), topology.NodeID(d), nil)
							rep := alg.Candidates(topo.FromCoords(cur), topo.FromCoords(dst), nil)
							if !slices.Equal(got, rep) {
								t.Fatalf("(%d,%d): %v, its class representative has %v", c, d, got, rep)
							}
							healthy[c*nodes+d] = got
						}
					}

					live := topology.NewLiveness(topo)
					alg.(FaultAware).SetLiveness(live)
					defer alg.(FaultAware).SetLiveness(nil)
					for mask := 0; mask < 3; mask++ {
						for x := 0; x < nodes; x++ {
							live.SetRouter(topology.NodeID(x), rng.IntN(10) != 0)
							for p := 0; p < topo.NumPorts(); p++ {
								live.SetLink(topology.NodeID(x), topology.Port(p), rng.IntN(5) != 0)
							}
						}
						for c := 0; c < nodes; c++ {
							for d := 0; d < nodes; d++ {
								var want []Candidate
								for _, cd := range healthy[c*nodes+d] {
									if live.LinkAlive(topology.NodeID(c), cd.Port) {
										want = append(want, cd)
									}
								}
								got := alg.Candidates(topology.NodeID(c), topology.NodeID(d), nil)
								if !slices.Equal(got, want) {
									t.Fatalf("mask %d, (%d,%d): %v, healthy set on live ports is %v", mask, c, d, got, want)
								}
							}
						}
					}
				})
			}
		}
	}
}
