package fault

import (
	"reflect"
	"sync"
	"testing"

	"wormnet/internal/topology"
)

func TestScheduleOrdering(t *testing.T) {
	s := (&Schedule{}).
		FailLink(300, 2, 1).
		FailRouter(100, 5).
		RestoreLink(200, 2, 1).
		FailLink(100, 0, 0)
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("events not sorted by cycle: %v", evs)
		}
	}
	// Stable within a cycle: insertion order preserved.
	if evs[0].Kind != RouterDown || evs[1].Kind != LinkDown {
		t.Errorf("same-cycle order not stable: %v %v", evs[0], evs[1])
	}
	if s.Len() != 4 || s.Empty() {
		t.Errorf("Len/Empty wrong: %d %v", s.Len(), s.Empty())
	}
}

// TestScheduleReadConcurrently reads one schedule, built out of order, from
// several goroutines at once, as parallel engines sharing a config do: under
// the race detector this fails if reading it writes anything.
func TestScheduleReadConcurrently(t *testing.T) {
	s := (&Schedule{}).FailLink(300, 2, 1).FailRouter(100, 5).RestoreLink(200, 2, 1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if evs := s.Events(); evs[0].Cycle != 100 || evs[2].Cycle != 300 {
				t.Errorf("events not sorted by cycle: %v", evs)
			}
		}()
	}
	wg.Wait()
}

func TestScheduleNilSafe(t *testing.T) {
	var s *Schedule
	if s.Len() != 0 || !s.Empty() {
		t.Error("nil schedule must be empty")
	}
}

func TestScheduleValidate(t *testing.T) {
	tp := topology.New(4, 2)
	bad := []*Schedule{
		(&Schedule{}).FailLink(-1, 0, 0),                           // negative cycle
		(&Schedule{}).FailRouter(0, topology.NodeID(tp.Nodes())),   // node out of range
		(&Schedule{}).FailLink(0, 0, topology.Port(tp.NumPorts())), // port out of range
		(&Schedule{}).Add(Event{Cycle: 0, Kind: Kind(99)}),         // unknown kind
	}
	for i, s := range bad {
		if err := s.Validate(tp); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	ok := (&Schedule{}).FailLink(0, 3, 2).RestoreLink(50, 3, 2).FailRouter(10, 15)
	if err := ok.Validate(tp); err != nil {
		t.Errorf("good schedule rejected: %v", err)
	}
}

func TestPlanDeterministicAndSized(t *testing.T) {
	tp := topology.New(4, 2)
	p := Profile{LinkFraction: 0.1, RouterFraction: 0.1, At: 5, Stagger: 20,
		TransientFraction: 0.5, RepairAfter: 100, Seed: 42}
	a, err := Plan(tp, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(tp, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same profile produced different schedules")
	}
	// 16 nodes * 4 ports = 64 links -> round(6.4) down events; 16 routers ->
	// round(1.6) down events.
	var linkDown, rtrDown, ups int
	downAt := map[Event]int64{}
	for _, ev := range a.Events() {
		switch ev.Kind {
		case LinkDown:
			linkDown++
			downAt[Event{Kind: LinkUp, Node: ev.Node, Port: ev.Port}] = ev.Cycle
		case RouterDown:
			rtrDown++
			downAt[Event{Kind: RouterUp, Node: ev.Node}] = ev.Cycle
		case LinkUp, RouterUp:
			ups++
			key := Event{Kind: ev.Kind, Node: ev.Node, Port: ev.Port}
			if dc, found := downAt[key]; !found || ev.Cycle != dc+p.RepairAfter {
				t.Errorf("repair %v not RepairAfter cycles after its failure", ev)
			}
		}
		if ev.Kind == LinkDown || ev.Kind == RouterDown {
			if ev.Cycle < p.At || ev.Cycle > p.At+p.Stagger {
				t.Errorf("failure %v outside [At, At+Stagger]", ev)
			}
		}
	}
	if linkDown != 6 || rtrDown != 2 {
		t.Errorf("got %d link / %d router failures, want 6 / 2", linkDown, rtrDown)
	}
	if ups == 0 {
		t.Error("TransientFraction 0.5 produced no repairs")
	}
	if err := a.Validate(tp); err != nil {
		t.Errorf("planned schedule invalid: %v", err)
	}
	// A different seed changes the plan.
	p2 := p
	p2.Seed = 43
	c, err := Plan(tp, p2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{LinkFraction: -0.1},
		{LinkFraction: 1.5},
		{RouterFraction: 2},
		{TransientFraction: -1},
		{At: -1},
		{Stagger: -1},
		{TransientFraction: 0.5, RepairAfter: 0},
	}
	for i, p := range bad {
		if _, err := Plan(topology.New(4, 2), p); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxRetries: 4, BackoffBase: 16, BackoffCap: 100}
	want := []int64{16, 32, 64, 100, 100}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %d want %d", i, got, w)
		}
	}
	// Large attempt counts must not overflow past the cap.
	if got := p.Delay(80); got != 100 {
		t.Errorf("Delay(80) = %d want cap 100", got)
	}
	if p.Exhausted(3) || !p.Exhausted(4) || !p.Exhausted(5) {
		t.Error("Exhausted boundary wrong")
	}
	if err := DefaultRetryPolicy().Validate(); err != nil {
		t.Errorf("default policy invalid: %v", err)
	}
	bad := []RetryPolicy{
		{MaxRetries: -1, BackoffBase: 1, BackoffCap: 1},
		{MaxRetries: 1, BackoffBase: 0, BackoffCap: 1},
		{MaxRetries: 1, BackoffBase: 8, BackoffCap: 4},
	}
	for i, bp := range bad {
		if err := bp.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestKindAndEventStrings(t *testing.T) {
	for _, k := range []Kind{LinkDown, LinkUp, RouterDown, RouterUp} {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	ev := Event{Cycle: 7, Kind: LinkDown, Node: 3, Port: 1}
	if ev.String() == "" {
		t.Error("event String empty")
	}
}

// TestRetryPolicyDelayOverflow drives Delay into the shift-overflow regime:
// with a cap too large to stop the doubling early, the accumulated delay
// overflows int64 sign (base 16 does so at attempt 59, reaching 2^63) and
// then shifts through zero. The d <= 0 guard must clamp every such attempt
// to the cap instead of returning a negative or zero backoff.
func TestRetryPolicyDelayOverflow(t *testing.T) {
	const maxCap = int64(^uint64(0) >> 1)
	p := RetryPolicy{MaxRetries: 100, BackoffBase: 16, BackoffCap: maxCap}
	for attempt := 59; attempt <= 200; attempt++ {
		if got := p.Delay(attempt); got != maxCap {
			t.Fatalf("Delay(%d) = %d want cap %d", attempt, got, maxCap)
		}
	}
	// Below the overflow horizon the plain doubling is still exact.
	if got := p.Delay(10); got != 16<<10 {
		t.Errorf("Delay(10) = %d want %d", p.Delay(10), int64(16<<10))
	}
	// Base 1 overflows one shift later (2^63 at attempt 63); the zero state
	// after a further shift must also clamp, never return 0.
	p1 := RetryPolicy{MaxRetries: 100, BackoffBase: 1, BackoffCap: maxCap}
	for attempt := 63; attempt <= 130; attempt++ {
		if got := p1.Delay(attempt); got <= 0 || got != maxCap {
			t.Fatalf("base-1 Delay(%d) = %d want cap %d", attempt, got, maxCap)
		}
	}
}

// TestRetryPolicyValidateBoundaries pins the edges of the Validate ranges:
// zero retries (drop on first kill) and base == cap are both legal.
func TestRetryPolicyValidateBoundaries(t *testing.T) {
	good := []RetryPolicy{
		{MaxRetries: 0, BackoffBase: 1, BackoffCap: 1},
		{MaxRetries: 1, BackoffBase: 64, BackoffCap: 64},
		{MaxRetries: 1 << 20, BackoffBase: 1, BackoffCap: 1<<63 - 1},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good policy %d rejected: %v", i, err)
		}
	}
	// base == cap: Delay must return the base for every attempt.
	p := RetryPolicy{MaxRetries: 4, BackoffBase: 64, BackoffCap: 64}
	for _, attempt := range []int{0, 1, 5, 100} {
		if got := p.Delay(attempt); got != 64 {
			t.Errorf("Delay(%d) = %d want 64", attempt, got)
		}
	}
	// MaxRetries 0 drops immediately.
	if !(RetryPolicy{MaxRetries: 0, BackoffBase: 1, BackoffCap: 1}).Exhausted(0) {
		t.Error("MaxRetries 0 must be exhausted at attempt 0")
	}
}

// TestPlanFlaps checks the flap extension of the planner: every healing
// component re-fails FlapCount more times, FlapPeriod apart, each outage
// healing after RepairAfter cycles.
func TestPlanFlaps(t *testing.T) {
	tp := topology.New(4, 2)
	p := Profile{LinkFraction: 0.05, At: 100, TransientFraction: 1,
		RepairAfter: 50, FlapCount: 3, FlapPeriod: 200, Seed: 9}
	s, err := Plan(tp, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tp); err != nil {
		t.Fatalf("flap schedule invalid: %v", err)
	}
	// 64 links * 0.05 -> 3 components; each contributes 1 + FlapCount downs
	// and as many ups.
	type comp struct {
		node topology.NodeID
		port topology.Port
	}
	downs := map[comp][]int64{}
	ups := map[comp][]int64{}
	for _, ev := range s.Events() {
		c := comp{ev.Node, ev.Port}
		switch ev.Kind {
		case LinkDown:
			downs[c] = append(downs[c], ev.Cycle)
		case LinkUp:
			ups[c] = append(ups[c], ev.Cycle)
		}
	}
	if len(downs) != 3 {
		t.Fatalf("got %d flapping components, want 3", len(downs))
	}
	for c, d := range downs {
		u := ups[c]
		if len(d) != 4 || len(u) != 4 {
			t.Fatalf("component %v: %d downs / %d ups, want 4 / 4", c, len(d), len(u))
		}
		for i := range d {
			if i > 0 && d[i]-d[i-1] != p.FlapPeriod {
				t.Errorf("component %v: downs %d apart, want %d", c, d[i]-d[i-1], p.FlapPeriod)
			}
			if u[i] != d[i]+p.RepairAfter {
				t.Errorf("component %v: up at %d, want %d", c, u[i], d[i]+p.RepairAfter)
			}
		}
	}
	// Flap validation boundaries: flaps need transience and a period longer
	// than the outage.
	bad := []Profile{
		{LinkFraction: 0.1, FlapCount: -1},
		{LinkFraction: 0.1, FlapCount: 2, FlapPeriod: 100},
		{LinkFraction: 0.1, TransientFraction: 1, RepairAfter: 50, FlapCount: 2, FlapPeriod: 50},
	}
	for i, bp := range bad {
		if err := bp.Validate(); err == nil {
			t.Errorf("bad flap profile %d accepted", i)
		}
	}
}
