package message

import "testing"

func TestMultipleRecoveries(t *testing.T) {
	m := New(1, 0, 9, 8, 5)
	for i := int32(1); i <= 3; i++ {
		m.State = StateInNetwork
		m.FlitsSent = i
		m.ResetForReinjection(2)
		if m.Recoveries != i {
			t.Fatalf("Recoveries=%d want %d", m.Recoveries, i)
		}
	}
	if m.Injector != 2 || m.FlitsSent != 0 {
		t.Error("reset state wrong after repeated recoveries")
	}
}

// TestReuseClearsTailAndChecksLength checks that a recycled message comes back
// as New would build it — holding no buffer, its Tail NoLoc — and that Reuse
// refuses a length below one flit as New does.
func TestReuseClearsTailAndChecksLength(t *testing.T) {
	m := New(1, 0, 9, 8, 5)
	if m.Tail != NoLoc {
		t.Fatalf("new message has Tail %+v, want NoLoc", m.Tail)
	}
	m.Tail = PathLoc{Node: 3, Port: 1, VC: 1}
	m.State, m.Recoveries, m.Retries, m.FlitsSent, m.DropReason = StateDelivered, 2, 1, 8, DropUnreachable
	m.Reuse(7, 2, 4, 16, 30)
	if want := *New(7, 2, 4, 16, 30); *m != want {
		t.Fatalf("reused message %+v, want a fresh %+v", *m, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reuse with length 0 did not panic")
		}
	}()
	m.Reuse(8, 0, 1, 0, 31)
}

// TestResetForRetryAndDrop covers the fault machinery's two outcomes: a retry
// clears flit progress and counts a retry, not a recovery; a drop records its
// reason.
func TestResetForRetryAndDrop(t *testing.T) {
	m := New(1, 0, 9, 8, 5)
	m.State, m.FlitsSent, m.FlitsEjected, m.Injector = StateInNetwork, 6, 2, 4
	m.ResetForRetry(0)
	if m.State != StateQueued || m.FlitsSent != 0 || m.FlitsEjected != 0 || m.Injector != 0 ||
		m.Retries != 1 || m.Recoveries != 0 || m.GenTime != 5 {
		t.Fatalf("after ResetForRetry: %+v", m)
	}
	m.Drop(DropRetriesExhausted)
	if m.State != StateDropped || m.DropReason != DropRetriesExhausted {
		t.Fatalf("after Drop: state %v, reason %q", m.State, m.DropReason)
	}
}
