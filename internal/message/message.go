// Package message defines the unit of communication of the wormhole
// simulator: multi-flit messages and the flits the router model moves from
// buffer to buffer.
//
// A wormhole message is a header flit followed by data flits and a tail flit
// (a 1-flit message is both head and tail). The simulator does not carry
// payload bytes; a Flit records only which message it belongs to and its
// sequence number, which is all flit-level switching needs.
package message

import (
	"fmt"

	"wormnet/internal/topology"
)

// ID uniquely identifies a message within a simulation run.
type ID int64

// State describes where a message currently is in its lifecycle.
type State int8

// Message lifecycle states, in normal progression order. A recovered
// (deadlocked) message moves back from StateInNetwork to StateQueued on the
// recovery queue of the node that held its header.
const (
	StateQueued    State = iota // waiting in a source or recovery queue
	StateInjecting              // holds an injection channel, flits streaming in
	StateInNetwork              // fully injected, some flits still in transit
	StateDelivered              // tail flit ejected at the destination
	StateDropped                // permanently dropped by the fault machinery
)

// String returns a short name for the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateInjecting:
		return "injecting"
	case StateInNetwork:
		return "in-network"
	case StateDelivered:
		return "delivered"
	case StateDropped:
		return "dropped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Message is a multi-flit wormhole message.
//
// All time fields are in simulation cycles. A Message is owned by a single
// simulation engine and is not safe for concurrent mutation. Fields are laid
// out widest first, so that a message is 96 bytes: the engine's pool holds
// one per message in the network.
type Message struct {
	ID ID

	GenTime     int64 // cycle the source generated the message
	InjectTime  int64 // cycle the head flit entered the network (-1 until then)
	DeliverTime int64 // cycle the tail flit was ejected (-1 until then)

	// DropReason is set when the fault machinery permanently drops the
	// message (State == StateDropped); empty otherwise.
	DropReason DropReason

	Src    topology.NodeID
	Dst    topology.NodeID
	Length int32 // flits, including head and tail

	// Injector is the node currently responsible for injecting the message:
	// the original source, or — after a deadlock recovery — the node that
	// held the header when the deadlock was detected.
	Injector topology.NodeID

	// FlitsSent counts flits that have left the injection channel.
	FlitsSent int32
	// FlitsEjected counts flits consumed by the destination.
	FlitsEjected int32

	// Recoveries counts how many times the message was presumed deadlocked
	// and re-injected by the software recovery mechanism.
	Recoveries int32

	// Retries counts how many times a fault killed the message and the
	// source re-enqueued it (capped exponential backoff between attempts).
	Retries int32

	// Tail is the oldest input virtual-channel buffer the message holds or
	// has claimed — the one its tail flit is in or will enter next — or
	// NoLoc while it holds none. The rest of its path is not stored: each
	// buffer's forwarding decision names the next one, so the engine walks
	// the routes the message claimed from here (deadlock recovery and fault
	// teardown do).
	Tail PathLoc

	State State

	// Measured marks messages generated inside the measurement window;
	// only these contribute to latency statistics.
	Measured bool
}

// PathLoc identifies one input virtual-channel buffer on a message's path:
// virtual channel vc of input port Port at node Node.
type PathLoc struct {
	Node topology.NodeID
	Port topology.Port
	VC   int8
}

// NoLoc is the Tail of a message that holds no input virtual channel.
var NoLoc = PathLoc{Node: -1}

// New returns a freshly generated message in StateQueued.
func New(id ID, src, dst topology.NodeID, length int, now int64) *Message {
	m := new(Message)
	m.Reuse(id, src, dst, length, now)
	return m
}

// Reuse re-initialises a recycled message in place, exactly as New builds a
// fresh one, so that steady-state simulation does not allocate.
func (m *Message) Reuse(id ID, src, dst topology.NodeID, length int, now int64) {
	if length < 1 {
		panic(fmt.Sprintf("message: length %d < 1", length))
	}
	*m = Message{
		ID:          id,
		Src:         src,
		Dst:         dst,
		Length:      int32(length),
		GenTime:     now,
		InjectTime:  -1,
		DeliverTime: -1,
		Injector:    src,
		State:       StateQueued,
		Tail:        NoLoc,
	}
}

// Latency returns the delivery latency in cycles (including source-queue
// time). It panics if the message has not been delivered.
func (m *Message) Latency() int64 {
	if m.DeliverTime < 0 {
		panic(fmt.Sprintf("message %d not delivered", m.ID))
	}
	return m.DeliverTime - m.GenTime
}

// DropReason explains why the fault machinery permanently dropped a
// message.
type DropReason string

// Drop reasons.
const (
	DropNone             DropReason = ""                  // not dropped
	DropRetriesExhausted DropReason = "retries-exhausted" // retry limit reached
	DropUnreachable      DropReason = "unreachable"       // destination router dead
	DropSourceFailed     DropReason = "source-failed"     // source router died holding it
)

// ResetForReinjection prepares a recovered message for re-injection at node
// injector: all flit progress is discarded and the message returns to the
// queued state. Generation time is preserved so the extra latency of the
// recovery is charged to the message.
func (m *Message) ResetForReinjection(injector topology.NodeID) {
	m.Injector = injector
	m.FlitsSent = 0
	m.FlitsEjected = 0
	m.State = StateQueued
	m.Recoveries++
}

// ResetForRetry prepares a fault-killed message for a fresh injection
// attempt at node injector (normally its original source): like
// ResetForReinjection, but counted as a fault retry. Generation time is
// preserved so backoff delays are charged to the message's latency.
func (m *Message) ResetForRetry(injector topology.NodeID) {
	m.Injector = injector
	m.FlitsSent = 0
	m.FlitsEjected = 0
	m.State = StateQueued
	m.Retries++
}

// Drop marks the message permanently dropped for the given reason.
func (m *Message) Drop(reason DropReason) {
	m.State = StateDropped
	m.DropReason = reason
}

// String summarises the message for debugging.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d %d->%d len=%d %s", m.ID, m.Src, m.Dst, m.Length, m.State)
}

// Flit is one buffer-entry's worth of a message. Flits are small values
// handed from buffer to buffer; they carry no payload, and a buffer does not
// store them — it keeps the run they form and derives each one on the way
// out (router.Buffer). The struct is kept at 16 bytes for the records that do
// hold flits (the sharded engine's push rings); Seq is an int32 accordingly,
// which bounds messages at 2^31 flits.
type Flit struct {
	Msg  *Message
	Seq  int32 // 0-based flit index within the message
	Head bool
	Tail bool
}

// MakeFlit builds flit number seq of message m.
func MakeFlit(m *Message, seq int) Flit {
	return Flit{
		Msg:  m,
		Seq:  int32(seq),
		Head: seq == 0,
		Tail: seq == int(m.Length)-1,
	}
}

// String summarises the flit for debugging.
func (f Flit) String() string {
	kind := "body"
	switch {
	case f.Head && f.Tail:
		kind = "head+tail"
	case f.Head:
		kind = "head"
	case f.Tail:
		kind = "tail"
	}
	return fmt.Sprintf("flit %d/%d of msg %d (%s)", f.Seq, f.Msg.Length, f.Msg.ID, kind)
}
