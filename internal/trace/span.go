package trace

import "wormnet/internal/topology"

// A span is the full latency decomposition of one message's life: where its
// cycles went between generation and delivery. Where an Event answers "what
// happened", a SpanRecord answers "what did it cost" — source-queue wait,
// per-hop channel-acquire block time, drain time — which is exactly the
// decomposition the saturation analysis needs (a saturated network shows the
// wait concentrated in a few hops forming a congestion tree; an ALO-limited
// one shows it pushed back into the source queue).
//
// The engine samples spans deterministically by message ID, builds them
// in-place as the message moves, and hands the finished record to a
// SpanSink at delivery. Sinks receive records synchronously on the
// simulation goroutine in delivery order, identical for any worker count.

// SpanHop is one channel acquisition along a message's path. Arrive is the
// cycle the head flit started competing for the node's output (for the
// source node: the cycle the message claimed an injection channel); Alloc is
// the cycle a virtual channel was granted. Alloc - Arrive is the blocked
// time at this hop; Alloc stays -1 when the message never won a channel
// there (it was torn down first).
type SpanHop struct {
	Node   topology.NodeID
	Arrive int64
	Alloc  int64
}

// SpanRecord is the lifecycle timing of one sampled message. Cycle fields
// are -1 until the corresponding transition happens, so partially lived
// records (dropped messages, in-flight messages at shutdown) stay
// interpretable. The record handed to a SpanSink is transient: the engine
// recycles it (including the Hops backing array) for later messages, so a
// sink that retains records must deep-copy them.
type SpanRecord struct {
	ID  int64
	Src topology.NodeID
	Dst topology.NodeID
	Len int // message length, flits

	Gen     int64 // cycle the message was created at its source
	Admit   int64 // cycle it left the source queue (claimed an injection VC)
	Inject  int64 // cycle the head flit entered the network
	Deliver int64 // cycle the tail flit was consumed at the destination

	// Injection-limiter pushback while the message sat in the source queue:
	// total denials and the ALO rule attribution (rule (a): at least one
	// useful channel free on a minimal direction; rule (b): at least one
	// useful channel fully empty). For ALO a denial means both failed.
	Denies      int64
	DeniesRuleA int64
	DeniesRuleB int64

	// Recoveries/Retries count how many times the message was torn down
	// (deadlock recovery, fault kill + source retry). Each teardown resets
	// Hops to the truncated source attempt, so Hops describe the final,
	// successful attempt only.
	Recoveries int
	Retries    int

	Hops []SpanHop
}

// Reset clears the record for reuse, keeping the Hops backing array.
func (s *SpanRecord) Reset() {
	*s = SpanRecord{Gen: -1, Admit: -1, Inject: -1, Deliver: -1, Hops: s.Hops[:0]}
}

// Clone deep-copies the record (fresh Hops array), for sinks that retain
// spans past the SpanDone call.
func (s *SpanRecord) Clone() *SpanRecord {
	c := *s
	c.Hops = append([]SpanHop(nil), s.Hops...)
	return &c
}

// QueueWait returns the source-queue wait in cycles (generation to
// injection-channel claim), or -1 if the message never left the queue.
func (s *SpanRecord) QueueWait() int64 {
	if s.Admit < 0 {
		return -1
	}
	return s.Admit - s.Gen
}

// NetLatency returns the in-network latency in cycles (claim to delivery),
// or -1 for an undelivered message.
func (s *SpanRecord) NetLatency() int64 {
	if s.Deliver < 0 || s.Admit < 0 {
		return -1
	}
	return s.Deliver - s.Admit
}

// DrainCycles returns the drain time: last channel grant to tail delivery.
// -1 when the message was not delivered or recorded no granted hop.
func (s *SpanRecord) DrainCycles() int64 {
	if s.Deliver < 0 {
		return -1
	}
	last := int64(-1)
	for _, h := range s.Hops {
		if h.Alloc > last {
			last = h.Alloc
		}
	}
	if last < 0 {
		return -1
	}
	return s.Deliver - last
}

// SpanSink consumes finished spans. The engine calls SpanDone synchronously
// on the simulation goroutine, in delivery order (or drop order for
// discarded messages); implementations must be fast and must copy the
// record if they keep it.
type SpanSink interface {
	SpanDone(*SpanRecord)
}

// MultiSpan fans one span out to several sinks in order.
type MultiSpan []SpanSink

// SpanDone implements SpanSink.
func (m MultiSpan) SpanDone(s *SpanRecord) {
	for _, sk := range m {
		sk.SpanDone(s)
	}
}
