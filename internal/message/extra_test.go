package message

import "testing"

func TestMultipleRecoveries(t *testing.T) {
	m := New(1, 0, 9, 8, 5)
	for i := 1; i <= 3; i++ {
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
