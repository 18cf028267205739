package obs

import (
	"sync"

	"wormnet/internal/metrics"
	"wormnet/internal/trace"
)

// FlightRecorder is a trace.Listener that keeps the most recent events in a
// ring and, when deadlock/drop activity bursts — at least Threshold
// deadlock-or-drop events within a Window of cycles — dumps the retained
// window (plus a metrics snapshot, when a registry is attached) to a JSONL
// sink. The dump answers "what led up to this?" without paying for full
// event logging on healthy runs.
//
// A second, independently configured trigger fires on saturation onset: at
// least SatThreshold limiter-denial (throttle) events within SatWindow
// cycles — the ALO deny-rate spike that marks the network crossing into
// saturation (SetSaturationTrigger; off by default). The recorder can also
// retain the most recent finished message spans (RetainSpans, fed through
// trace.SpanSink) and dumps them alongside the event window, so each dump
// carries the latency decomposition of the messages leading up to it.
//
// Dumps are rate-limited: after firing, the recorder stays quiet for
// Cooldown cycles so a sustained collapse produces a bounded number of
// dumps rather than one per event. Both triggers share the cooldown.
type FlightRecorder struct {
	ring *trace.Recorder
	w    *JSONLWriter
	reg  *metrics.Registry // optional; attaches a snapshot to each dump

	// Window is the burst-detection window in cycles, Threshold the number
	// of deadlock/drop events within it that triggers a dump, Cooldown the
	// minimum number of cycles between dumps.
	Window    int64
	Threshold int
	Cooldown  int64

	// SatWindow/SatThreshold are the saturation-onset trigger: SatThreshold
	// throttle events within SatWindow cycles. SatThreshold <= 0 disables.
	SatWindow    int64
	SatThreshold int

	mu       sync.Mutex
	times    []int64 // emission cycles of recent deadlock/drop events (ring)
	next     int
	satTimes []int64 // emission cycles of recent throttle events (ring)
	satNext  int
	lastDump int64
	dumps    int

	spanRing  []*trace.SpanRecord // retained finished spans (cloned), ring
	spanNext  int
	spanCount int
}

// Default flight-recorder tuning, used by the CLI: retain the last 4096
// events and dump when 8 deadlock/drop events land within 1024 cycles.
// Healthy runs (sporadic recoveries) never trigger; a saturation collapse
// or a fault-driven drop storm does.
const (
	DefaultFlightCapacity  = 4096
	DefaultFlightWindow    = 1024
	DefaultFlightThreshold = 8
	// Saturation-trigger defaults (the trigger itself is opt-in): a dump
	// when 256 limiter denials land within 256 cycles — a sustained ≥1
	// denial/cycle network-wide, which steady sub-saturation traffic with a
	// working limiter does not produce.
	DefaultFlightSatWindow    = 256
	DefaultFlightSatThreshold = 256
	// DefaultFlightSpans is the CLI's span-retention depth.
	DefaultFlightSpans = 256
)

// NewFlightRecorder returns a recorder retaining the latest capacity events
// with the given burst window and threshold. reg may be nil.
func NewFlightRecorder(w *JSONLWriter, reg *metrics.Registry, capacity int, window int64, threshold int) *FlightRecorder {
	if threshold < 1 {
		panic("obs: flight-recorder threshold must be positive")
	}
	return &FlightRecorder{
		ring:      trace.NewRecorder(capacity),
		w:         w,
		reg:       reg,
		Window:    window,
		Threshold: threshold,
		Cooldown:  window,
		times:     make([]int64, threshold-1),
		lastDump:  -1 << 62,
	}
}

// SetSaturationTrigger arms (or, with threshold <= 0, disarms) the
// saturation-onset trigger: a dump fires when threshold throttle events
// land within window cycles, subject to the shared cooldown.
func (f *FlightRecorder) SetSaturationTrigger(window int64, threshold int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.SatWindow = window
	f.SatThreshold = threshold
	f.satTimes = nil
	f.satNext = 0
	if threshold > 1 {
		f.satTimes = make([]int64, threshold-1)
	}
}

// RetainSpans makes the recorder keep the most recent capacity finished
// message spans (attach the recorder as a trace.SpanSink, e.g. via
// Engine.EnableSpans); every dump then includes them.
func (f *FlightRecorder) RetainSpans(capacity int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spanRing = make([]*trace.SpanRecord, capacity)
	f.spanNext, f.spanCount = 0, 0
}

// SpanDone implements trace.SpanSink. Records are transient, so the
// recorder retains a deep copy.
func (f *FlightRecorder) SpanDone(s *trace.SpanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.spanRing) == 0 {
		return
	}
	f.spanRing[f.spanNext] = s.Clone()
	f.spanNext = (f.spanNext + 1) % len(f.spanRing)
	if f.spanCount < len(f.spanRing) {
		f.spanCount++
	}
}

// flightRecord is one dump in a JSONL stream.
type flightRecord struct {
	Record  string         `json:"t"`      // "flight"
	Reason  string         `json:"reason"` // "burst" or "saturation"
	Cycle   int64          `json:"cycle"`
	Window  int64          `json:"window"`
	Bursts  int            `json:"burst_events"` // trigger events in the window
	Events  []eventRecord  `json:"events"`
	Spans   []spanJSON     `json:"spans,omitempty"`
	Metrics map[string]any `json:"metrics,omitempty"`
}

// spanJSON is the JSON shape of one retained message span.
type spanJSON struct {
	ID         int64         `json:"id"`
	Src        int64         `json:"src"`
	Dst        int64         `json:"dst"`
	Len        int           `json:"len"`
	Gen        int64         `json:"gen"`
	Admit      int64         `json:"admit"`
	Inject     int64         `json:"inject"`
	Deliver    int64         `json:"deliver"`
	Denies     int64         `json:"denies"`
	DeniesA    int64         `json:"denies_rule_a"`
	DeniesB    int64         `json:"denies_rule_b"`
	Recoveries int           `json:"recoveries"`
	Retries    int           `json:"retries"`
	Hops       []spanHopJSON `json:"hops"`
}

// spanHopJSON is one hop of a retained span.
type spanHopJSON struct {
	Node   int64 `json:"node"`
	Arrive int64 `json:"arrive"`
	Alloc  int64 `json:"alloc"`
}

// newSpanJSON converts a retained span record.
func newSpanJSON(s *trace.SpanRecord) spanJSON {
	hops := make([]spanHopJSON, len(s.Hops))
	for i, h := range s.Hops {
		hops[i] = spanHopJSON{Node: int64(h.Node), Arrive: h.Arrive, Alloc: h.Alloc}
	}
	return spanJSON{
		ID: s.ID, Src: int64(s.Src), Dst: int64(s.Dst), Len: s.Len,
		Gen: s.Gen, Admit: s.Admit, Inject: s.Inject, Deliver: s.Deliver,
		Denies: s.Denies, DeniesA: s.DeniesRuleA, DeniesB: s.DeniesRuleB,
		Recoveries: s.Recoveries, Retries: s.Retries, Hops: hops,
	}
}

// slideWindow pushes cycle into the (threshold-1)-sized ring times at
// *next and reports whether threshold trigger events — this one included —
// landed within window cycles. The slot about to be overwritten holds the
// cycle of the event threshold-1 occurrences ago, so the check is exact; an
// empty ring (threshold 1) fires on every event, rate-limited by the
// caller's cooldown. Stored cycles are offset by +1 to keep cycle 0
// distinct from empty slots.
func slideWindow(times []int64, next *int, cycle, window int64) bool {
	if len(times) == 0 {
		return true
	}
	oldest := times[*next]
	times[*next] = cycle + 1
	*next = (*next + 1) % len(times)
	return oldest > 0 && cycle+1-oldest <= window
}

// Emit implements trace.Listener.
func (f *FlightRecorder) Emit(ev trace.Event) {
	f.ring.Emit(ev)
	var reason string
	switch ev.Kind {
	case trace.KindDeadlock, trace.KindDropped:
		reason = "burst"
	case trace.KindThrottled:
		if f.SatThreshold <= 0 {
			return
		}
		reason = "saturation"
	default:
		return
	}
	f.mu.Lock()
	var burst bool
	if reason == "burst" {
		burst = slideWindow(f.times, &f.next, ev.Cycle, f.Window)
	} else {
		burst = slideWindow(f.satTimes, &f.satNext, ev.Cycle, f.SatWindow)
	}
	fire := burst && ev.Cycle-f.lastDump >= f.Cooldown
	if fire {
		f.lastDump = ev.Cycle
		f.dumps++
	}
	f.mu.Unlock()
	if fire {
		f.dump(ev.Cycle, reason)
	}
}

// dump writes the retained window (and retained spans, oldest first).
func (f *FlightRecorder) dump(cycle int64, reason string) {
	evs := f.ring.Events()
	recs := make([]eventRecord, len(evs))
	for i, ev := range evs {
		recs[i] = newEventRecord(ev)
	}
	rec := flightRecord{
		Record: "flight",
		Reason: reason,
		Cycle:  cycle,
		Window: f.Window,
		Bursts: f.Threshold,
		Events: recs,
	}
	if reason == "saturation" {
		rec.Window, rec.Bursts = f.SatWindow, f.SatThreshold
	}
	f.mu.Lock()
	if f.spanCount > 0 {
		rec.Spans = make([]spanJSON, 0, f.spanCount)
		for i := 0; i < f.spanCount; i++ {
			idx := (f.spanNext - f.spanCount + i + len(f.spanRing)) % len(f.spanRing)
			rec.Spans = append(rec.Spans, newSpanJSON(f.spanRing[idx]))
		}
	}
	f.mu.Unlock()
	if f.reg != nil {
		rec.Metrics = MetricsMap(f.reg)
	}
	f.w.Write(rec) //nolint:errcheck // sticky error surfaces at Close
	f.w.Flush()    //nolint:errcheck // a flight dump should hit disk now
}

// Dumps returns how many dumps have fired.
func (f *FlightRecorder) Dumps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}
