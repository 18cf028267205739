package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"wormnet/internal/topology"
)

func TestGatePrimitives(t *testing.T) {
	if !andGate() || orGate() {
		t.Error("identity elements wrong")
	}
	if !andGate(true, true) || andGate(true, false) {
		t.Error("and gate wrong")
	}
	if !orGate(false, true) || orGate(false, false) {
		t.Error("or gate wrong")
	}
	if notGate(true) || !notGate(false) {
		t.Error("not gate wrong")
	}
}

func TestCircuitConstruction(t *testing.T) {
	ck := NewCircuit(6, 3)
	if ck.Ports() != 6 || ck.VCs() != 3 {
		t.Fatal("geometry")
	}
	for _, f := range []func(){
		func() { NewCircuit(0, 3) },
		func() { NewCircuit(6, 0) },
		func() { ck.Eval(make([]Signal, 5), make([]Signal, 6)) },
		func() { ck.Eval(make([]Signal, 18), make([]Signal, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCircuitTruthTableExamples(t *testing.T) {
	// 2 ports, 2 VCs: exhaustively checkable by hand.
	ck := NewCircuit(2, 2)
	cases := []struct {
		vcFree []Signal // [p0v0 p0v1 p1v0 p1v1]
		useful []Signal
		want   Signal
	}{
		// Both ports useful, each has one free VC -> rule a.
		{[]Signal{true, false, false, true}, []Signal{true, true}, true},
		// Port 0 exhausted, port 1 partially free -> neither rule.
		{[]Signal{false, false, true, false}, []Signal{true, true}, false},
		// Port 0 exhausted, port 1 completely free -> rule b.
		{[]Signal{false, false, true, true}, []Signal{true, true}, true},
		// Only port 1 useful and exhausted; port 0 completely free but
		// not useful -> forbid.
		{[]Signal{true, true, false, false}, []Signal{false, true}, false},
		// Nothing useful -> vacuous rule a permits.
		{[]Signal{false, false, false, false}, []Signal{false, false}, true},
	}
	for i, c := range cases {
		if got := ck.Eval(c.vcFree, c.useful); got != c.want {
			t.Errorf("case %d: Eval=%v want %v", i, got, c.want)
		}
	}
}

// referencePredicate is the ALO definition written independently of both the
// gate network and ALO.Allow: used as the oracle for equivalence testing.
func referencePredicate(vcFree []Signal, useful []Signal, vcs int) Signal {
	ruleA := true
	ruleB := false
	for p := range useful {
		if !useful[p] {
			continue
		}
		free := 0
		for v := 0; v < vcs; v++ {
			if vcFree[p*vcs+v] {
				free++
			}
		}
		if free == 0 {
			ruleA = false
		}
		if free == vcs {
			ruleB = true
		}
	}
	return ruleA || ruleB
}

// The gate circuit must agree with the reference predicate on the entire
// input space of the paper's configuration (6 ports x 3 VCs = 2^18 status
// registers x 2^6 routing vectors is too large to enumerate; we enumerate a
// 3x2 configuration exhaustively and fuzz the 6x3 one).
func TestGateCircuitExhaustiveSmall(t *testing.T) {
	const ports, vcs = 3, 2
	ck := NewCircuit(ports, vcs)
	vcFree := make([]Signal, ports*vcs)
	useful := make([]Signal, ports)
	for sr := 0; sr < 1<<(ports*vcs); sr++ {
		for i := range vcFree {
			vcFree[i] = sr&(1<<i) != 0
		}
		for u := 0; u < 1<<ports; u++ {
			for i := range useful {
				useful[i] = u&(1<<i) != 0
			}
			want := referencePredicate(vcFree, useful, vcs)
			if got := ck.Eval(vcFree, useful); got != want {
				t.Fatalf("sr=%b u=%b: circuit=%v reference=%v", sr, u, got, want)
			}
		}
	}
}

func TestGateCircuitFuzzPaperConfig(t *testing.T) {
	const ports, vcs = 6, 3
	ck := NewCircuit(ports, vcs)
	f := func(sr uint32, u uint8) bool {
		vcFree := make([]Signal, ports*vcs)
		for i := range vcFree {
			vcFree[i] = sr&(1<<i) != 0
		}
		useful := make([]Signal, ports)
		for i := range useful {
			useful[i] = u&(1<<i) != 0
		}
		return ck.Eval(vcFree, useful) == referencePredicate(vcFree, useful, vcs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestGateCircuitMatchesPredicate cross-checks the circuit against the
// production ALO.Allow through a live ChannelView, closing the loop between
// the hardware model (Figure 3) and the software predicate.
func TestGateCircuitMatchesPredicate(t *testing.T) {
	tp := topology.New(8, 3)
	ck := NewCircuit(tp.NumPorts(), 3)
	alo := ALO
	rng := rand.New(rand.NewPCG(3, 14))
	for trial := 0; trial < 3000; trial++ {
		free := map[topology.Port]int{}
		for p := 0; p < tp.NumPorts(); p++ {
			free[topology.Port(p)] = rng.IntN(4)
		}
		src := topology.NodeID(rng.IntN(tp.Nodes()))
		dst := topology.NodeID(rng.IntN(tp.Nodes()))
		if src == dst {
			continue
		}
		v := &fakeView{
			useful: tp.UsefulPorts(src, dst, nil),
			free:   free,
			vcs:    3,
			ports:  tp.NumPorts(),
		}
		if got, want := ck.EvalView(v, dst), alo.Allow(v, dst); got != want {
			t.Fatalf("trial %d (src=%d dst=%d free=%v): circuit=%v predicate=%v",
				trial, src, dst, free, got, want)
		}
	}
}

func TestEvalViewGeometryMismatch(t *testing.T) {
	ck := NewCircuit(6, 3)
	v := &fakeView{vcs: 2, ports: 6}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ck.EvalView(v, 1)
}

// TestRuleWordsExhaustive holds the word form of the rules — what a simulator
// with a one-word status register runs in place of a ChannelView walk —
// against the definitions it replaces, over every status register and every
// routing output of a four-channel router at 1 to 4 virtual channels: RuleWords
// against EvalRules and the Figure 3 circuit, and each member of the ALO
// family's rules and channel set against its own Allow and ClassifyRules.
func TestRuleWordsExhaustive(t *testing.T) {
	const ports = 4
	family := []Rules{ALO, RuleAOnly, RuleBOnly, AllChannels}
	for vcs := 1; vcs <= 4; vcs++ {
		ck := NewCircuit(ports, vcs)
		vcFree := make([]Signal, ports*vcs)
		useful := make([]Signal, ports)
		view := &fakeView{free: map[topology.Port]int{}, vcs: vcs, ports: ports}
		var allPorts uint64
		for p := 0; p < ports; p++ {
			allPorts |= 1 << uint(p*vcs)
		}
		for free := uint64(0); free < 1<<(ports*vcs); free++ {
			for i := range vcFree {
				vcFree[i] = free>>uint(i)&1 != 0
				if i%vcs == 0 {
					view.free[topology.Port(i/vcs)] = 0
				}
				if vcFree[i] {
					view.free[topology.Port(i/vcs)]++
				}
			}
			for u := 0; u < 1<<ports; u++ {
				var usefulWord uint64
				view.useful = view.useful[:0]
				for p := range useful {
					if useful[p] = u>>uint(p)&1 != 0; useful[p] {
						usefulWord |= 1 << uint(p*vcs)
						view.useful = append(view.useful, topology.Port(p))
					}
				}
				a, b := RuleWords(free, usefulWord, vcs)
				if wa, wb := EvalRules(view, 0); a != wa || b != wb {
					t.Fatalf("vcs=%d free=%b useful=%b: RuleWords=(%v,%v), EvalRules=(%v,%v)", vcs, free, u, a, b, wa, wb)
				}
				if got := ck.Eval(vcFree, useful); got != (a || b) {
					t.Fatalf("vcs=%d free=%b useful=%b: circuit=%v, RuleWords=(%v,%v)", vcs, free, u, got, a, b)
				}
				for _, lim := range family {
					useA, useB := lim.A, lim.B
					a, b := a, b
					if lim.AllPorts {
						a, b = RuleWords(free, allPorts, vcs)
					}
					if got, want := useA && a || useB && b, lim.Allow(view, 0); got != want {
						t.Fatalf("%s vcs=%d free=%b useful=%b: word form admits=%v, Allow=%v", lim.Name(), vcs, free, u, got, want)
					}
					if wa, wb := lim.ClassifyRules(view, 0); a != wa || b != wb {
						t.Fatalf("%s vcs=%d free=%b useful=%b: word form rules (%v,%v), ClassifyRules (%v,%v)", lim.Name(), vcs, free, u, a, b, wa, wb)
					}
				}
			}
		}
	}
}
