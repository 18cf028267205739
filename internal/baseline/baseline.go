// Package baseline implements the injection-limitation mechanisms the paper
// compares ALO against:
//
//   - None — no limitation (the paper's "no mechanism" curves),
//   - LF — the Linear-Function threshold mechanism of López, Martínez,
//     Duato & Petrini (PCRCW'97),
//   - DRIL — the dynamically self-computed threshold mechanism of López,
//     Martínez & Duato (ICPP'98).
//
// LF and DRIL are re-implemented from their summary in §2 of the reproduced
// paper (the original papers are not part of this reproduction): both
// estimate local traffic by counting busy virtual output channels and
// throttle injection when the count crosses a threshold. LF derives its
// threshold from a running estimate of how many channels the current
// destination distribution makes useful; DRIL lets every node freeze its
// own threshold the moment it locally observes the network entering
// saturation — which is what makes it unfair: nodes that trigger early
// throttle themselves, relieving the network so that other nodes trigger
// later with a more permissive threshold, or never.
package baseline

import (
	"fmt"
	"math"

	"wormnet/internal/core"
	"wormnet/internal/topology"
)

// None imposes no injection restriction.
type None struct{}

// NewNone returns the no-limitation factory.
func NewNone() core.Factory { return core.Shared(None{}) }

// Allow implements core.Limiter; it always permits injection.
func (None) Allow(core.ChannelView, topology.NodeID) bool { return true }

// Name implements core.Limiter.
func (None) Name() string { return "none" }

// busyVCs counts the allocated virtual output channels of the whole node.
func busyVCs(v core.ChannelView) int {
	busy := 0
	for p := 0; p < v.NumPorts(); p++ {
		busy += v.VCs() - v.FreeVCs(topology.Port(p))
	}
	return busy
}

// LF is the Linear-Function mechanism: a message is injected only if the
// number of busy virtual output channels of its node is below a threshold
// that is a linear function of the node's estimate of how many channels the
// current destination distribution makes useful. The estimate is an EWMA of
// the useful-port count of the queue head at every consultation, not once per
// generated message: a head denied for k cycles is sampled k times, so heads
// that wait longer weigh more. A bounded aging term relaxes the threshold for
// long-waiting queue heads, which keeps nodes inside persistently hot regions
// from starving without disabling the throttle.
type LF struct {
	vcs      int
	ports    int
	alpha    float64 // slope of the linear threshold function
	beta     float64 // intercept of the linear threshold function
	estAvg   float64 // EWMA of the useful-port counts of consulted queue heads
	estValid bool
}

// LF tuning constants. Alpha scales the estimated number of useful virtual
// output channels into a busy-channel threshold; Beta is the intercept;
// ewmaWeight is the weight of the newest sample in the useful-port EWMA.
// agingCycles implements starvation avoidance: for every such period the
// queue head has waited, the threshold relaxes by one busy channel, up to
// agingCap extra channels — this bounds LF's unfairness at the level the
// original reports (≲20%) without disabling the mechanism outright under
// sustained extreme overload.
const (
	lfAlpha       = 1.25
	lfBeta        = 0.0
	lfEWMAWeight  = 0.05
	lfAgingCycles = 400
	lfAgingCap    = 5
)

// NewLF returns the Linear-Function limiter factory with the package's
// default tuning.
func NewLF() core.Factory {
	return func(t *topology.Torus, vcs int) []core.Limiter {
		return slab(t.Nodes(), LF{vcs: vcs, ports: 2 * t.N(), alpha: lfAlpha, beta: lfBeta})
	}
}

// slab returns n limiters, each a copy of init, carved from one array: a
// network's stateful limiters cost two objects, not one a node.
func slab[T any, P interface {
	*T
	core.Limiter
}](n int, init T) []core.Limiter {
	arr := make([]T, n)
	ls := make([]core.Limiter, n)
	for i := range arr {
		arr[i] = init
		ls[i] = P(&arr[i])
	}
	return ls
}

// Allow implements core.Limiter.
func (l *LF) Allow(v core.ChannelView, dst topology.NodeID) bool {
	ports := v.UsefulPorts(dst)
	useful := len(ports)
	// Update the destination-distribution guess with this head's useful-port
	// count: every consultation is a sample, a denied head's included.
	if !l.estValid {
		l.estAvg = float64(useful)
		l.estValid = true
	} else {
		l.estAvg += lfEWMAWeight * (float64(useful) - l.estAvg)
	}
	threshold := l.alpha*l.estAvg*float64(l.vcs) + l.beta
	if max := float64(l.ports * l.vcs); threshold > max {
		threshold = max
	}
	if threshold < float64(l.vcs) {
		threshold = float64(l.vcs)
	}
	// Starvation avoidance: relax the threshold as the queue head ages, up
	// to a bounded number of extra channels. Without relief, nodes inside
	// persistently hot regions never see the busy count drop below any
	// fixed threshold and starve outright; the cap keeps the relief from
	// disabling the mechanism under sustained overload.
	aging := v.HeadWait() / lfAgingCycles
	if aging > lfAgingCap {
		aging = lfAgingCap
	}
	threshold += float64(aging)
	return float64(busyVCs(v)) < threshold
}

// Name implements core.Limiter.
func (l *LF) Name() string { return "lf" }

// AppendState implements core.StatefulLimiter: the useful-port EWMA and its
// validity flag. Tuning constants and geometry are reconstructed by the
// factory, not serialized.
func (l *LF) AppendState(dst []uint64) []uint64 {
	valid := uint64(0)
	if l.estValid {
		valid = 1
	}
	return append(dst, math.Float64bits(l.estAvg), valid)
}

// LoadState implements core.StatefulLimiter.
func (l *LF) LoadState(s []uint64) error {
	if len(s) != 2 || s[1] > 1 {
		return fmt.Errorf("baseline: lf state %v is not an estimate and a validity flag", s)
	}
	l.estAvg = math.Float64frombits(s[0])
	l.estValid = s[1] != 0
	return nil
}

// DRIL is the dynamically-reduced injection limitation mechanism. Every
// node starts unrestricted. When a node locally detects that the network is
// entering saturation — its source queue persistently exceeds a trigger
// length — it freezes a threshold computed from the number of busy virtual
// output channels it observes at that instant, and from then on injects
// only while the busy count stays below its private threshold. Nodes
// re-trigger (and tighten the threshold) if their queue keeps growing.
type DRIL struct {
	vcs   int
	ports int

	triggered bool
	threshold int

	// queueHigh counts consecutive Tick cycles with a long source queue.
	queueHigh int
	// cooldown prevents immediate re-triggering after a tightening step.
	cooldown int
}

// DRIL tuning constants: a node triggers after its source queue has held at
// least drilQueueTrigger messages for drilPersistCycles consecutive cycles;
// subsequent triggers tighten the threshold by one busy channel, no earlier
// than drilCooldown cycles after the previous tightening.
const (
	drilQueueTrigger   = 4
	drilPersistCycles  = 16
	drilCooldown       = 512
	drilThresholdScale = 0.75
)

// NewDRIL returns the DRIL limiter factory with the package's default
// tuning.
func NewDRIL() core.Factory {
	return func(t *topology.Torus, vcs int) []core.Limiter {
		return slab(t.Nodes(), DRIL{vcs: vcs, ports: 2 * t.N()})
	}
}

// Allow implements core.Limiter.
func (d *DRIL) Allow(v core.ChannelView, _ topology.NodeID) bool {
	if !d.triggered {
		return true
	}
	return busyVCs(v) < d.threshold
}

// Tick implements core.CycleObserver: it watches the node's source queue
// for the saturation-onset signal and (re)computes the threshold.
func (d *DRIL) Tick(v core.ChannelView, _ int64) {
	if d.cooldown > 0 {
		d.cooldown--
	}
	if v.QueuedMessages() >= drilQueueTrigger {
		d.queueHigh++
	} else {
		d.queueHigh = 0
	}
	if d.queueHigh < drilPersistCycles || d.cooldown > 0 {
		return
	}
	if !d.triggered {
		// Entering saturation: freeze the threshold from the busy count
		// observed right now.
		d.triggered = true
		d.threshold = int(drilThresholdScale * float64(busyVCs(v)))
		if d.threshold < 1 {
			d.threshold = 1
		}
	} else if d.threshold > 1 {
		// Still saturating under the current threshold: tighten.
		d.threshold--
	}
	d.cooldown = drilCooldown
	d.queueHigh = 0
}

// Name implements core.Limiter.
func (d *DRIL) Name() string { return "dril" }

// AppendState implements core.StatefulLimiter: the trigger flag, frozen
// threshold and the two cycle counters.
func (d *DRIL) AppendState(dst []uint64) []uint64 {
	trig := uint64(0)
	if d.triggered {
		trig = 1
	}
	return append(dst, trig, uint64(d.threshold), uint64(d.queueHigh), uint64(d.cooldown))
}

// LoadState implements core.StatefulLimiter.
func (d *DRIL) LoadState(s []uint64) error {
	if len(s) != 4 || s[0] > 1 {
		return fmt.Errorf("baseline: dril state %v is not a trigger flag and three counters", s)
	}
	d.triggered = s[0] != 0
	d.threshold = int(s[1])
	d.queueHigh = int(s[2])
	d.cooldown = int(s[3])
	return nil
}

// Compile-time interface checks: the stateful baselines are snapshot-aware.
var (
	_ core.StatefulLimiter = (*LF)(nil)
	_ core.StatefulLimiter = (*DRIL)(nil)
)

// Threshold returns DRIL's current busy-channel threshold and whether the
// node has triggered at all. Exposed for tests and fairness analyses.
func (d *DRIL) Threshold() (int, bool) { return d.threshold, d.triggered }

// Factories returns the limiter factories of the paper's §4.2 comparison,
// keyed by mechanism name: none, lf, dril and alo.
func Factories() map[string]core.Factory {
	return map[string]core.Factory{
		"none": NewNone(),
		"lf":   NewLF(),
		"dril": NewDRIL(),
		"alo":  core.NewALO(),
	}
}

// LimiterByName resolves an injection-limiter factory from the name the
// CLIs and campaign specs use: the four mechanisms of Factories plus the ALO
// ablations alo-rule-a, alo-rule-b and alo-all-channels.
func LimiterByName(name string) (core.Factory, error) {
	switch name {
	case "alo-rule-a":
		return core.NewRuleAOnly(), nil
	case "alo-rule-b":
		return core.NewRuleBOnly(), nil
	case "alo-all-channels":
		return core.NewAllChannels(), nil
	}
	if f, ok := Factories()[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("baseline: unknown limiter %q", name)
}
