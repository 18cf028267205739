package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary.
type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	tid        int // lane in the trace view; concurrent spans use distinct lanes
	start, end time.Duration
}

// recorder keeps the spans of one traced run in memory and writes them out
// when the run ends. A nil recorder records nothing, which is how the
// untraced run shares code with the traced one.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

const noSpan = -1

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, tid int) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, tid: tid, start: now, end: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// durations returns the length in seconds of every closed span called name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []float64
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			ds = append(ds, (s.end - s.start).Seconds())
		}
	}
	return ds
}

// traceEvent is one Chrome trace-event record: "M" thread names and "X"
// complete slices, the subset scripts/tracecheck accepts.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   *float64       `json:"ts,omitempty"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto); each slice carries its span id, its parent's id and the
// workload id.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]traceEvent, 0, len(r.spans)+4)
	lanes := map[int]bool{}
	for _, s := range r.spans {
		if !lanes[s.tid] {
			lanes[s.tid] = true
			name := "driver"
			if s.tid > 0 {
				name = fmt.Sprintf("point-slot-%d", s.tid)
			}
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid, Args: map[string]any{"name": name}})
		}
	}
	for id, s := range r.spans {
		if s.end < 0 {
			continue
		}
		ts := float64(s.start.Nanoseconds()) / 1e3
		dur := float64((s.end - s.start).Nanoseconds()) / 1e3
		args := map[string]any{"id": id, "parent": s.parent, "workload": r.workload}
		events = append(events, traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Ts: &ts, Dur: &dur, Args: args})
	}
	data, err := json.Marshal(map[string][]traceEvent{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
