package message

import (
	"strings"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	m := New(7, 1, 2, 16, 100)
	if m.ID != 7 || m.Src != 1 || m.Dst != 2 || m.Length != 16 {
		t.Fatalf("fields wrong: %+v", m)
	}
	if m.GenTime != 100 || m.InjectTime != -1 || m.DeliverTime != -1 {
		t.Fatalf("times wrong: %+v", m)
	}
	if m.State != StateQueued || m.Injector != m.Src {
		t.Fatalf("initial state wrong: %+v", m)
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 0")
		}
	}()
	New(1, 0, 1, 0, 0)
}

func TestLatency(t *testing.T) {
	m := New(1, 0, 1, 4, 10)
	m.InjectTime = 25
	m.DeliverTime = 60
	if got := m.Latency(); got != 50 {
		t.Errorf("Latency=%d want 50", got)
	}
}

func TestLatencyPanicsUndelivered(t *testing.T) {
	m := New(1, 0, 1, 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = m.Latency()
}

func TestResetForReinjection(t *testing.T) {
	m := New(1, 0, 9, 8, 5)
	m.State = StateInNetwork
	m.FlitsSent = 8
	m.FlitsEjected = 3
	m.InjectTime = 12
	m.ResetForReinjection(4)
	if m.Injector != 4 {
		t.Errorf("Injector=%d want 4", m.Injector)
	}
	if m.FlitsSent != 0 || m.FlitsEjected != 0 {
		t.Error("flit progress not reset")
	}
	if m.State != StateQueued {
		t.Errorf("State=%v want queued", m.State)
	}
	if m.Recoveries != 1 {
		t.Errorf("Recoveries=%d want 1", m.Recoveries)
	}
	if m.GenTime != 5 {
		t.Error("GenTime must be preserved so recovery latency is charged")
	}
	if m.Src != 0 || m.Dst != 9 {
		t.Error("endpoints must not change")
	}
}

func TestMakeFlit(t *testing.T) {
	m := New(1, 0, 1, 3, 0)
	h := MakeFlit(m, 0)
	b := MakeFlit(m, 1)
	tl := MakeFlit(m, 2)
	if !h.Head || h.Tail {
		t.Errorf("flit 0 flags wrong: %v", h)
	}
	if b.Head || b.Tail {
		t.Errorf("flit 1 flags wrong: %v", b)
	}
	if tl.Head || !tl.Tail {
		t.Errorf("flit 2 flags wrong: %v", tl)
	}

	single := MakeFlit(New(2, 0, 1, 1, 0), 0)
	if !single.Head || !single.Tail {
		t.Error("1-flit message must be head+tail")
	}
}

func TestStrings(t *testing.T) {
	m := New(3, 1, 2, 4, 0)
	if !strings.Contains(m.String(), "msg 3") {
		t.Errorf("Message.String=%q", m.String())
	}
	f := MakeFlit(m, 0)
	if !strings.Contains(f.String(), "head") {
		t.Errorf("Flit.String=%q", f.String())
	}
	if !strings.Contains(MakeFlit(m, 1).String(), "body") {
		t.Error("body flit string")
	}
	one := MakeFlit(New(4, 0, 1, 1, 0), 0)
	if !strings.Contains(one.String(), "head+tail") {
		t.Error("head+tail flit string")
	}
	for s, want := range map[State]string{
		StateQueued: "queued", StateInjecting: "injecting",
		StateInNetwork: "in-network", StateDelivered: "delivered",
		State(9): "state(9)",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String=%q want %q", s, s.String(), want)
		}
	}
}
