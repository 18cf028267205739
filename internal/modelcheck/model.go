// Package modelcheck is the exhaustive validation lane: a bounded
// state-space explorer for tiny network configurations that drives the
// real sim.Engine — not a model of it — through every reachable injection
// schedule, and validates the FC3D deadlock machinery against ground
// truth at every reachable state.
//
// The nondeterminism of a run is exactly the injection schedule: the
// engine itself is deterministic (fixed seed, no autonomous sources at
// Rate 0), so branching over which of a bounded message catalog to inject
// before each cycle enumerates every reachable behaviour. States are
// deduplicated by the canonical snapshot hash (sim.Snapshot.CanonicalHash)
// and every newly visited state is put through the full check battery:
//
//   - ground-truth deadlock via the channel-wait graph
//     (sim.Engine.BuildWaitGraph + deadlock.WaitGraph liveness fixpoint);
//   - an FC3D probe on every ground-truth-deadlocked state: the engine
//     must fire recovery within the probe budget — a miss is a false
//     negative, dumped as a replayable counterexample; recovery of a
//     non-deadlocked message during expansion is counted as a false
//     positive (quantified per threshold, never fatal);
//   - the full engine invariant suite (free on every restore, plus an
//     explicit post-step check);
//   - ALO's "at least one free useful channel" injection property,
//     re-derived from raw router state (sim.Engine.VerifyInjectionProperty);
//   - snapshot round-trip identity (restore + re-snapshot gives the same
//     canonical bytes).
package modelcheck

import (
	"fmt"

	"wormnet/internal/core"
	"wormnet/internal/deadlock"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// MsgSpec is one catalog entry: a message the explorer may inject (at most
// once per schedule) at any cycle boundary.
type MsgSpec struct {
	Src, Dst int32
	Length   int
}

// Spec describes one bounded model: the tiny network plus the message
// catalog and the exploration budgets. The zero value is not runnable; use
// DefaultSpec or fill the fields and let Config validate them.
type Spec struct {
	// Network (kept tiny: the state space is exponential in all of these).
	K, N        int
	VCs         int
	BufDepth    int
	InjChannels int
	EjChannels  int
	Routing     string

	// Deadlock machinery under test.
	Threshold     int32
	RecoveryDelay int64
	Lenient       bool

	// Messages the explorer may inject. Sources must be pairwise distinct:
	// injections at different nodes commute (each lands in its own source
	// queue), so enumerating the *subsets* of remaining messages per cycle
	// is exhaustive. Two same-source entries would need ordered same-cycle
	// enumeration too; Config rejects them instead.
	Messages []MsgSpec

	// Budgets.
	MaxCycles   int64 // schedule horizon: states at this depth are not expanded
	MaxStates   int   // visited-state budget: exploration stops when reached
	ProbeBudget int64 // FN-probe step budget; 0 means 2*Threshold+4*RecoveryDelay+64
}

// DefaultSpec is the canonical tiny model from the issue: a 2-ary 2-cube
// with single-VC single-flit buffers, TFAR routing, the ALO limiter, and a
// 4-message diagonal catalog. Note that in a 2-ary cube every hop is
// minimal in *both* ring directions, so TFAR always has an escape channel
// and no reachable state of this model deadlocks — the exploration
// validates the invariant suite, the ALO property, snapshot round-trips and
// the oracle's all-live verdicts. Use RingSpec for a model whose reachable
// states include genuine cyclic deadlocks.
func DefaultSpec() Spec {
	return Spec{
		K: 2, N: 2,
		VCs: 1, BufDepth: 1,
		InjChannels: 1, EjChannels: 1,
		Routing:       "tfar",
		Threshold:     deadlock.DefaultThreshold,
		RecoveryDelay: 8,
		Messages: []MsgSpec{
			{Src: 0, Dst: 3, Length: 6},
			{Src: 3, Dst: 0, Length: 6},
			{Src: 1, Dst: 2, Length: 6},
			{Src: 2, Dst: 1, Length: 6},
		},
		MaxCycles:   96,
		MaxStates:   150000,
		ProbeBudget: 0,
	}
}

// RingSpec is the deadlock-prone tiny model: a 4-ary 1-cube (a ring of
// four routers) where each node sends one 6-flit worm to the node two hops
// away. Both ring directions are minimal at distance k/2, the first free
// candidate is the Plus direction for every header, and the four worms are
// long enough to hold their first channel while waiting for the next — the
// classic cyclic wait. Exploration reaches genuine ground-truth deadlock
// states, so the FC3D false-negative probe and the true-positive
// accounting are actually exercised.
func RingSpec() Spec {
	return Spec{
		K: 4, N: 1,
		VCs: 1, BufDepth: 1,
		InjChannels: 1, EjChannels: 1,
		Routing:       "tfar",
		Threshold:     deadlock.DefaultThreshold,
		RecoveryDelay: 8,
		Messages: []MsgSpec{
			{Src: 0, Dst: 2, Length: 6},
			{Src: 1, Dst: 3, Length: 6},
			{Src: 2, Dst: 0, Length: 6},
			{Src: 3, Dst: 1, Length: 6},
		},
		MaxCycles:   64,
		MaxStates:   150000,
		ProbeBudget: 0,
	}
}

// probeBudget resolves the effective FN-probe budget.
func (s Spec) probeBudget() int64 {
	if s.ProbeBudget > 0 {
		return s.ProbeBudget
	}
	return 2*int64(s.Threshold) + 4*s.RecoveryDelay + 64
}

// Config maps the spec onto a sim.Config: no autonomous traffic (Rate 0 —
// the explorer injects at cycle boundaries), serial engine, ALO limiter,
// and an effectively unbounded measurement window (the explorer owns the
// clock).
func (s Spec) Config() (sim.Config, error) {
	cfg, e, err := s.build()
	if err != nil {
		return sim.Config{}, err
	}
	e.Close()
	return cfg, nil
}

// build is Config, and the engine of the initial state it validated the
// config with.
func (s Spec) build() (sim.Config, *sim.Engine, error) {
	if len(s.Messages) == 0 {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: empty message catalog")
	}
	if len(s.Messages) > 8 {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: %d catalog messages; the action set is ordered subsequences, keep it <= 8", len(s.Messages))
	}
	if s.MaxCycles < 1 {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: MaxCycles %d < 1", s.MaxCycles)
	}
	if s.MaxStates < 1 {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: MaxStates %d < 1", s.MaxStates)
	}
	// The budget is checked before each pop, and every edge of the pop may
	// lead to a new state: a run may end with MaxStates-1+fanOut of them.
	if fanOut := 1 << len(s.Messages); uint64(s.MaxStates)-1+uint64(fanOut) > maxVisited {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: MaxStates %d: the visited set holds at most %d states, and a pop may add %d past the budget",
			s.MaxStates, uint64(maxVisited), fanOut)
	}
	nodes := 1
	for i := 0; i < s.N; i++ {
		nodes *= s.K
	}
	srcSeen := make(map[int32]bool)
	maxLen := 1
	for i, m := range s.Messages {
		if srcSeen[m.Src] {
			return sim.Config{}, nil, fmt.Errorf("modelcheck: two catalog messages share source %d; subset enumeration needs distinct sources", m.Src)
		}
		srcSeen[m.Src] = true
		if int(m.Src) < 0 || int(m.Src) >= nodes || int(m.Dst) < 0 || int(m.Dst) >= nodes {
			return sim.Config{}, nil, fmt.Errorf("modelcheck: message %d endpoints %d->%d outside %d nodes", i, m.Src, m.Dst, nodes)
		}
		if m.Src == m.Dst {
			return sim.Config{}, nil, fmt.Errorf("modelcheck: message %d is self-addressed", i)
		}
		if m.Length < 1 {
			return sim.Config{}, nil, fmt.Errorf("modelcheck: message %d length %d < 1", i, m.Length)
		}
		if m.Length > maxLen {
			maxLen = m.Length
		}
	}
	cfg := sim.Config{
		K: s.K, N: s.N,
		VCs: s.VCs, BufDepth: s.BufDepth,
		InjChannels: s.InjChannels, EjChannels: s.EjChannels,
		Routing: s.Routing,
		Pattern: "uniform", MsgLen: maxLen, Rate: 0,
		Limiter: core.NewALO(), LimiterName: "alo",
		DetectionThreshold: s.Threshold,
		RecoveryDelay:      s.RecoveryDelay,
		LenientDetection:   s.Lenient,
		MeasureCycles:      1 << 40,
		Seed:               1,
		Workers:            1,
	}
	// Round-trip through the engine constructor once so spec errors surface
	// here, with modelcheck context, rather than deep in the explorer.
	e, err := sim.New(cfg)
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("modelcheck: spec does not build: %w", err)
	}
	return cfg, e, nil
}

// inject applies catalog entry i to the engine.
func (s Spec) inject(e *sim.Engine, i int) {
	m := s.Messages[i]
	e.Inject(topology.NodeID(m.Src), topology.NodeID(m.Dst), m.Length)
}
