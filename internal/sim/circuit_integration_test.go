package sim

import (
	"testing"

	"wormnet/internal/core"
	"wormnet/internal/topology"
)

// circuitCheckedALO decides with the software predicate and asserts the
// Figure-3 gate circuit agrees, on every live injection decision.
type circuitCheckedALO struct {
	alo     core.Rules
	circuit *core.Circuit
	t       *testing.T
	checks  *int64
}

func (l *circuitCheckedALO) Allow(v core.ChannelView, dst topology.NodeID) bool {
	sw := l.alo.Allow(v, dst)
	hw := l.circuit.EvalView(v, dst)
	if sw != hw {
		l.t.Errorf("gate circuit (%v) disagrees with ALO predicate (%v) for dst %d", hw, sw, dst)
	}
	*l.checks++
	return sw
}

func (l *circuitCheckedALO) Name() string { return "alo+circuit" }

// TestCircuitMatchesALOInLiveEngine drives a saturated network where every
// injection decision is taken twice — once by the software predicate, once
// by the hardware gate model — and they must never disagree. This closes
// the loop between Figure 3 and the simulator across thousands of real
// (not synthetic) router states.
func TestCircuitMatchesALOInLiveEngine(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 1.8 // saturated: decisions span the whole state space
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 3000, 0
	var checks int64
	cfg.Limiter = core.PerNode(func(_ topology.NodeID, tp *topology.Torus, vcs int) core.Limiter {
		return &circuitCheckedALO{
			alo:     core.ALO,
			circuit: core.NewCircuit(tp.NumPorts(), vcs),
			t:       t,
			checks:  &checks,
		}
	})
	cfg.LimiterName = "alo+circuit"
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if checks < 1000 {
		t.Fatalf("only %d live decisions checked; expected thousands", checks)
	}
}
