package trace

import (
	"strings"
	"sync"
	"testing"
)

func ev(cycle int64, k Kind, msg int64) Event {
	return Event{Cycle: cycle, Kind: k, Msg: msg, Src: 0, Dst: 5, Node: 2}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindGenerated: "generated", KindInjected: "injected",
		KindDelivered: "delivered", KindDeadlock: "deadlock",
		KindRecovered: "recovered", KindThrottled: "throttled",
		Kind(42): "kind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String()=%q want %q", k, k.String(), s)
		}
	}
}

func TestEventString(t *testing.T) {
	s := ev(100, KindInjected, 7).String()
	for _, part := range []string{"100", "injected", "msg=7", "0->5", "at 2"} {
		if !strings.Contains(s, part) {
			t.Errorf("event string %q misses %q", s, part)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(10)
	if r.Len() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	for i := int64(0); i < 5; i++ {
		r.Emit(ev(i, KindGenerated, i))
	}
	if r.Len() != 5 {
		t.Fatalf("Len=%d", r.Len())
	}
	events := r.Events()
	for i, e := range events {
		if e.Cycle != int64(i) {
			t.Fatalf("order broken: %v", events)
		}
	}
	if r.Count(KindGenerated) != 5 || r.Count(KindDelivered) != 0 {
		t.Error("counts wrong")
	}
	if r.Count(Kind(42)) != 0 {
		t.Error("unknown kind count")
	}
}

func TestRecorderWraps(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 10; i++ {
		r.Emit(ev(i, KindInjected, i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len=%d want 4", r.Len())
	}
	events := r.Events()
	// Oldest retained is cycle 6.
	for i, e := range events {
		if e.Cycle != int64(6+i) {
			t.Fatalf("ring order broken: %v", events)
		}
	}
	// Total count is unaffected by eviction.
	if r.Count(KindInjected) != 10 {
		t.Errorf("Count=%d", r.Count(KindInjected))
	}
}

func TestRecorderPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(0)
}

func TestMessageHistory(t *testing.T) {
	r := NewRecorder(16)
	r.Emit(ev(1, KindGenerated, 7))
	r.Emit(ev(2, KindGenerated, 8))
	r.Emit(ev(3, KindInjected, 7))
	r.Emit(ev(9, KindDelivered, 7))
	hist := r.MessageHistory(7)
	if len(hist) != 3 {
		t.Fatalf("history: %v", hist)
	}
	if hist[0].Kind != KindGenerated || hist[2].Kind != KindDelivered {
		t.Errorf("history order: %v", hist)
	}
}

func TestMultiAndFunc(t *testing.T) {
	r1, r2 := NewRecorder(4), NewRecorder(4)
	calls := 0
	m := Multi{r1, r2, Func(func(Event) { calls++ })}
	m.Emit(ev(1, KindInjected, 1))
	if r1.Len() != 1 || r2.Len() != 1 || calls != 1 {
		t.Error("multi fan-out broken")
	}
}

// TestDecoratorComposition stacks Multi and Func the way the package doc
// does: one fan-out feeding an unfiltered sink and a Func that keeps only the
// kinds it wants.
func TestDecoratorComposition(t *testing.T) {
	all := NewRecorder(16)
	var deadlocks []Event
	stack := Multi{
		all,
		Func(func(e Event) {
			if e.Kind == KindDeadlock || e.Kind == KindDropped {
				deadlocks = append(deadlocks, e)
			}
		}),
	}
	for i := int64(0); i < 6; i++ {
		stack.Emit(ev(i, KindInjected, i))
	}
	stack.Emit(ev(6, KindDeadlock, 3))
	stack.Emit(ev(7, KindDropped, 4))
	if all.Len() != 8 {
		t.Errorf("unfiltered sink got %d of 8", all.Len())
	}
	if len(deadlocks) != 2 || deadlocks[0].Kind != KindDeadlock || deadlocks[1].Kind != KindDropped {
		t.Errorf("filtered sink got %v", deadlocks)
	}
}

// TestRecorderConcurrent hammers one Recorder from several emitters while a
// reader drains Events/Len/Count/MessageHistory. Run under -race it proves
// the locking covers every accessor; the final counts check that no event
// was lost.
func TestRecorderConcurrent(t *testing.T) {
	const (
		emitters = 4
		perEmit  = 2000
	)
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Events()
			_ = r.Len()
			_ = r.Count(KindInjected)
			_ = r.MessageHistory(1)
		}
	}()
	var ewg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		ewg.Add(1)
		go func(g int) {
			defer ewg.Done()
			for i := 0; i < perEmit; i++ {
				r.Emit(ev(int64(i), KindInjected, int64(g)))
			}
		}(g)
	}
	ewg.Wait()
	close(stop)
	wg.Wait()
	if got := r.Count(KindInjected); got != emitters*perEmit {
		t.Errorf("lost events: counted %d, emitted %d", got, emitters*perEmit)
	}
	if r.Len() != 64 {
		t.Errorf("ring should be full: Len=%d", r.Len())
	}
}
