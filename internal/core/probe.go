package core

import (
	"sync/atomic"

	"wormnet/internal/topology"
)

// ProbeStats accumulates, across all nodes of a run, how often each ALO
// condition held at injection-decision time. It reproduces the measurement
// behind the paper's Figure 2: the percentage of routing occurrences with
// (a) at least one free virtual channel in every useful physical channel,
// (b) at least one useful physical channel completely free, and (a)∨(b).
//
// Counters are updated atomically so a run may be sampled while in flight.
type ProbeStats struct {
	total  atomic.Int64
	condA  atomic.Int64
	condB  atomic.Int64
	either atomic.Int64
}

// Total returns the number of injection decisions observed.
func (s *ProbeStats) Total() int64 { return s.total.Load() }

// PercentA returns the percentage of decisions where rule (a) held.
func (s *ProbeStats) PercentA() float64 { return pct(s.condA.Load(), s.total.Load()) }

// PercentB returns the percentage of decisions where rule (b) held.
func (s *ProbeStats) PercentB() float64 { return pct(s.condB.Load(), s.total.Load()) }

// PercentEither returns the percentage of decisions where (a)∨(b) held.
func (s *ProbeStats) PercentEither() float64 { return pct(s.either.Load(), s.total.Load()) }

func pct(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// probe evaluates both ALO rules on every decision, records them into the
// shared ProbeStats, then delegates the actual decision to the wrapped
// limiter (typically the unrestricted baseline, so that the measured
// condition frequencies reflect the unthrottled network as in the paper).
type probe struct {
	inner Limiter
	stats *ProbeStats
}

// WrapProbe decorates a limiter factory with Figure-2 instrumentation.
// All per-node limiter instances share the returned ProbeStats, and a
// network's wrappers are cut from one array.
func WrapProbe(inner Factory) (Factory, *ProbeStats) {
	stats := &ProbeStats{}
	f := func(t *topology.Torus, vcs int) []Limiter {
		ls := inner(t, vcs)
		probes := make([]probe, len(ls))
		for i, l := range ls {
			probes[i] = probe{inner: l, stats: stats}
			ls[i] = &probes[i]
		}
		return ls
	}
	return f, stats
}

// Allow implements Limiter.
func (p *probe) Allow(v ChannelView, dst topology.NodeID) bool {
	a, b := EvalRules(v, dst)
	p.stats.total.Add(1)
	if a {
		p.stats.condA.Add(1)
	}
	if b {
		p.stats.condB.Add(1)
	}
	if a || b {
		p.stats.either.Add(1)
	}
	return p.inner.Allow(v, dst)
}

// Name implements Limiter.
func (p *probe) Name() string { return p.inner.Name() + "+probe" }

// Tick forwards the per-cycle hook to the wrapped limiter if it needs one.
func (p *probe) Tick(v ChannelView, now int64) {
	if o, ok := p.inner.(CycleObserver); ok {
		o.Tick(v, now)
	}
}
