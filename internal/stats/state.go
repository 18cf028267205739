package stats

// State export/import for checkpoint/restore. Every accumulator exposes a
// plain-data State struct (exported fields only, so encoding/gob can carry
// it) and a Restore that loads it back. Restores validate geometry — bucket
// widths, node counts, window bounds — and fail loudly on mismatch rather
// than silently continuing with a collector that would merge wrongly.

import "fmt"

// WelfordState is the serializable state of a Welford accumulator.
type WelfordState struct {
	N        int64
	Mean, M2 float64
	Min, Max float64
}

// State exports the accumulator.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2, Min: w.min, Max: w.max}
}

// Restore loads a previously exported state.
func (w *Welford) Restore(s WelfordState) {
	w.n, w.mean, w.m2, w.min, w.max = s.N, s.Mean, s.M2, s.Min, s.Max
}

// HistogramState is the serializable state of a Histogram.
type HistogramState struct {
	Width   float64
	Buckets []int64
	Over    int64
	Total   int64
}

// StateInto exports the histogram into dst, reusing dst's bucket storage.
func (h *Histogram) StateInto(dst *HistogramState) {
	*dst = HistogramState{
		Width:   h.width,
		Buckets: append(dst.Buckets[:0], h.buckets...),
		Over:    h.over,
		Total:   h.total,
	}
}

// Restore loads a previously exported state. The receiver's geometry (bucket
// width and count) must match.
func (h *Histogram) Restore(s HistogramState) error {
	if h.width != s.Width || len(h.buckets) != len(s.Buckets) {
		return fmt.Errorf("stats: histogram geometry mismatch (%vx%d vs %vx%d)",
			h.width, len(h.buckets), s.Width, len(s.Buckets))
	}
	copy(h.buckets, s.Buckets)
	h.over, h.total = s.Over, s.Total
	return nil
}

// FairnessState is the serializable state of a Fairness tracker.
type FairnessState struct {
	Counts []int64
}

// StateInto exports the tracker into dst, reusing dst's storage.
func (f *Fairness) StateInto(dst *FairnessState) {
	dst.Counts = append(dst.Counts[:0], f.counts...)
}

// Restore loads a previously exported state. The node count must match.
func (f *Fairness) Restore(s FairnessState) error {
	if len(f.counts) != len(s.Counts) {
		return fmt.Errorf("stats: fairness node count mismatch (%d vs %d)",
			len(f.counts), len(s.Counts))
	}
	copy(f.counts, s.Counts)
	return nil
}

// ClassAccState is the serializable state of one traffic class accumulator.
type ClassAccState struct {
	Generated      int64
	Injected       int64
	Delivered      int64
	DeliveredFlits int64
	Latency        WelfordState
}

// ClassesState is the serializable state of a collector's per-class
// accounting: the class configuration (labels and per-node map) plus the
// accumulators.
type ClassesState struct {
	Names   []string
	ClassOf []uint8
	Accs    []ClassAccState
}

// CollectorState is the serializable state of a Collector, including its
// geometry so a restore can verify it lands in a matching collector.
type CollectorState struct {
	Nodes    int
	WinStart int64
	WinEnd   int64

	Latency    WelfordState
	NetLatency WelfordState
	Hist       HistogramState

	GeneratedMsgs  int64
	DeliveredMsgs  int64
	DeliveredFlits int64
	InjectedMsgs   int64
	Deadlocks      int64
	FaultEvents    int64
	AbortedMsgs    int64
	RetriedMsgs    int64
	DroppedMsgs    int64

	Fairness FairnessState
	Runs     int64

	// Classes is nil when the collector has no per-class accounting.
	Classes *ClassesState
}

// State exports the collector.
func (c *Collector) State() (s CollectorState) {
	c.StateInto(&s)
	return s
}

// StateInto exports the collector into dst, whatever dst held: its histogram
// and fairness storage is reused, and the result shares no memory with c.
func (c *Collector) StateInto(dst *CollectorState) {
	*dst = CollectorState{
		Nodes:          c.nodes,
		WinStart:       c.winStart,
		WinEnd:         c.winEnd,
		Latency:        c.Latency.State(),
		NetLatency:     c.NetLatency.State(),
		Hist:           dst.Hist,
		GeneratedMsgs:  c.generatedMsgs,
		DeliveredMsgs:  c.deliveredMsgs,
		DeliveredFlits: c.deliveredFlits,
		InjectedMsgs:   c.injectedMsgs,
		Deadlocks:      c.deadlocks,
		FaultEvents:    c.faultEvents,
		AbortedMsgs:    c.abortedMsgs,
		RetriedMsgs:    c.retriedMsgs,
		DroppedMsgs:    c.droppedMsgs,
		Fairness:       dst.Fairness,
		Runs:           c.runs,
	}
	c.Hist.StateInto(&dst.Hist)
	c.fairness.StateInto(&dst.Fairness)
	if c.classes != nil {
		cs := ClassesState{
			Names:   append([]string(nil), c.classNames...),
			ClassOf: append([]uint8(nil), c.classOf...),
			Accs:    make([]ClassAccState, len(c.classes)),
		}
		for i := range c.classes {
			a := &c.classes[i]
			cs.Accs[i] = ClassAccState{
				Generated:      a.generated,
				Injected:       a.injected,
				Delivered:      a.delivered,
				DeliveredFlits: a.deliveredFlits,
				Latency:        a.latency.State(),
			}
		}
		dst.Classes = &cs
	}
}

// Restore loads a previously exported state into c. The collector's geometry
// (node count and measurement window) must match the snapshot's.
func (c *Collector) Restore(s CollectorState) error {
	if c.nodes != s.Nodes || c.winStart != s.WinStart || c.winEnd != s.WinEnd {
		return fmt.Errorf("stats: collector geometry mismatch (nodes %d win [%d,%d) vs nodes %d win [%d,%d))",
			c.nodes, c.winStart, c.winEnd, s.Nodes, s.WinStart, s.WinEnd)
	}
	if err := c.Hist.Restore(s.Hist); err != nil {
		return err
	}
	if err := c.fairness.Restore(s.Fairness); err != nil {
		return err
	}
	c.Latency.Restore(s.Latency)
	c.NetLatency.Restore(s.NetLatency)
	c.generatedMsgs = s.GeneratedMsgs
	c.deliveredMsgs = s.DeliveredMsgs
	c.deliveredFlits = s.DeliveredFlits
	c.injectedMsgs = s.InjectedMsgs
	c.deadlocks = s.Deadlocks
	c.faultEvents = s.FaultEvents
	c.abortedMsgs = s.AbortedMsgs
	c.retriedMsgs = s.RetriedMsgs
	c.droppedMsgs = s.DroppedMsgs
	c.runs = s.Runs
	if s.Classes != nil {
		if c.classes == nil {
			// The restore target was built without class accounting (restore
			// order does not depend on re-enabling it first): adopt the
			// snapshot's configuration.
			c.EnableClasses(s.Classes.Names, s.Classes.ClassOf)
		} else if len(c.classNames) != len(s.Classes.Names) {
			return fmt.Errorf("stats: class count mismatch (%d vs %d)", len(c.classNames), len(s.Classes.Names))
		}
		for i, name := range s.Classes.Names {
			if c.classNames[i] != name {
				return fmt.Errorf("stats: class %d named %q, snapshot has %q", i, c.classNames[i], name)
			}
		}
		for n := range c.classOf {
			if c.classOf[n] != s.Classes.ClassOf[n] {
				return fmt.Errorf("stats: node %d in class %d, snapshot has %d", n, c.classOf[n], s.Classes.ClassOf[n])
			}
		}
		if len(s.Classes.Accs) != len(c.classes) {
			return fmt.Errorf("stats: class accumulator count mismatch (%d vs %d)", len(c.classes), len(s.Classes.Accs))
		}
		for i, a := range s.Classes.Accs {
			c.classes[i].generated = a.Generated
			c.classes[i].injected = a.Injected
			c.classes[i].delivered = a.Delivered
			c.classes[i].deliveredFlits = a.DeliveredFlits
			c.classes[i].latency.Restore(a.Latency)
		}
	} else if c.classes != nil {
		return fmt.Errorf("stats: collector has class accounting but snapshot does not")
	}
	return nil
}
