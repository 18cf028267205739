// Package trace provides event-level observability for the simulator: a
// Listener interface the engine publishes message lifecycle events to, a
// bounded in-memory Recorder, and text formatting. Tracing is optional —
// an engine with no listener pays a nil-check per event and nothing more.
//
// The events cover the message lifecycle the paper's metrics are built
// from (generation, injection, delivery, deadlock detection/recovery), so
// a Recorder can replay exactly why a run behaved the way it did.
//
// # Decorators
//
// Listeners compose. Multi fans one event out to several listeners in
// order; Func adapts a plain function, which is also how a listener picks
// the kinds it wants. The decorators hold no state of their own and add no
// synchronization — concurrency safety is wherever the terminal listener
// provides it (Recorder locks; a Func is whatever the function is). A
// typical stack:
//
//	rec := trace.NewRecorder(1024)
//	eng.SetListener(trace.Multi{
//		rec,
//		trace.Func(func(ev trace.Event) {
//			if ev.Kind == trace.KindDeadlock {
//				sink.Emit(ev)
//			}
//		}),
//	})
package trace

import (
	"fmt"
	"sync"

	"wormnet/internal/topology"
)

// Kind enumerates the event types.
type Kind int8

// Event kinds, in lifecycle order. The fault kinds (KindFault onward) are
// emitted only when fault injection is active.
const (
	KindGenerated Kind = iota // message created at its source
	KindInjected              // head flit entered the network
	KindDelivered             // tail flit consumed at the destination
	KindDeadlock              // message presumed deadlocked (detection fired)
	KindRecovered             // message re-entered a queue after recovery
	KindThrottled             // injection denied by the limitation mechanism
	KindFault                 // a link or router failed (Msg is -1)
	KindRepair                // a link or router was repaired (Msg is -1)
	KindAborted               // message killed because its path died
	KindRetried               // killed message scheduled for source retry
	KindDropped               // message dropped (retries exhausted or unreachable)

	NumKinds // count of event kinds; keep last
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case KindGenerated:
		return "generated"
	case KindInjected:
		return "injected"
	case KindDelivered:
		return "delivered"
	case KindDeadlock:
		return "deadlock"
	case KindRecovered:
		return "recovered"
	case KindThrottled:
		return "throttled"
	case KindFault:
		return "fault"
	case KindRepair:
		return "repair"
	case KindAborted:
		return "aborted"
	case KindRetried:
		return "retried"
	case KindDropped:
		return "dropped"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one message lifecycle occurrence. Len carries the message length
// in flits (0 for component-level fault/repair events): together with Cycle,
// Src and Dst it makes a recorded stream of KindGenerated events a complete
// injection schedule, replayable through traffic.ReplayFactory.
type Event struct {
	Cycle int64
	Kind  Kind
	Msg   int64 // message ID
	Src   topology.NodeID
	Dst   topology.NodeID
	Node  topology.NodeID // where the event happened
	Len   int32           // message length in flits (0 when not applicable)
}

// String formats the event as a single log line.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] %-9s msg=%d %d->%d at %d",
		e.Cycle, e.Kind, e.Msg, e.Src, e.Dst, e.Node)
}

// Listener consumes events. Implementations must be fast: the engine calls
// Emit synchronously from the simulation loop.
type Listener interface {
	Emit(Event)
}

// Recorder is a bounded ring-buffer Listener that keeps the most recent
// events. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	next   int
	filled bool
	counts [NumKinds]int64
}

// NewRecorder returns a recorder keeping the latest capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		panic("trace: recorder capacity must be positive")
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Emit implements Listener.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.events)
	}
	return r.next
}

// Count returns how many events of the kind were emitted in total (not just
// retained).
func (r *Recorder) Count(k Kind) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(k) >= len(r.counts) {
		return 0
	}
	return r.counts[k]
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// MessageHistory returns the retained events of one message, oldest first.
func (r *Recorder) MessageHistory(msgID int64) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Msg == msgID {
			out = append(out, ev)
		}
	}
	return out
}

// Multi fans an event out to several listeners.
type Multi []Listener

// Emit implements Listener.
func (m Multi) Emit(ev Event) {
	for _, l := range m {
		l.Emit(ev)
	}
}

// Func adapts a function to the Listener interface.
type Func func(Event)

// Emit implements Listener.
func (f Func) Emit(ev Event) { f(ev) }
