package trace

import "testing"

// TestSpanRecordDerivedTimes checks the three derived latencies on a
// delivered record and their -1 answers on records that never got that far.
func TestSpanRecordDerivedTimes(t *testing.T) {
	s := &SpanRecord{Hops: make([]SpanHop, 0, 4)}
	s.Reset()
	if s.Gen != -1 || s.Admit != -1 || s.Inject != -1 || s.Deliver != -1 {
		t.Fatalf("reset record %+v: cycle fields must be -1", s)
	}
	if s.QueueWait() != -1 || s.NetLatency() != -1 || s.DrainCycles() != -1 {
		t.Fatal("an unlived record must report -1 for every derived time")
	}
	s.Gen, s.Admit = 10, 14
	s.Hops = append(s.Hops, SpanHop{Node: 0, Arrive: 14, Alloc: 15}, SpanHop{Node: 1, Arrive: 16, Alloc: 21}, SpanHop{Node: 2, Arrive: 22, Alloc: -1})
	if got := s.QueueWait(); got != 4 {
		t.Errorf("QueueWait = %d, want 4", got)
	}
	if s.NetLatency() != -1 || s.DrainCycles() != -1 {
		t.Error("an undelivered record must report -1 network latency and drain")
	}
	s.Deliver = 40
	if got := s.NetLatency(); got != 26 {
		t.Errorf("NetLatency = %d, want 26", got)
	}
	if got := s.DrainCycles(); got != 19 {
		t.Errorf("DrainCycles = %d, want 19 (delivery minus the last grant)", got)
	}
	ungranted := &SpanRecord{Deliver: 5, Hops: []SpanHop{{Alloc: -1}}}
	if got := ungranted.DrainCycles(); got != -1 {
		t.Errorf("DrainCycles without a granted hop = %d, want -1", got)
	}
}

// TestSpanRecordCloneAndReset checks that a clone owns its hops, and that
// Reset keeps the record's own Hops array for the next message.
func TestSpanRecordCloneAndReset(t *testing.T) {
	s := &SpanRecord{ID: 3, Gen: 1, Hops: []SpanHop{{Node: 4, Arrive: 2, Alloc: 3}}}
	c := s.Clone()
	s.Hops[0].Node = 9
	if c.ID != 3 || c.Gen != 1 || len(c.Hops) != 1 || c.Hops[0].Node != 4 {
		t.Fatalf("clone %+v shares or lost the original's hops", c)
	}
	hops := &s.Hops[0]
	s.Reset()
	if s.ID != 0 || len(s.Hops) != 0 || &s.Hops[:1][0] != hops {
		t.Fatalf("Reset: id %d, %d hops, same array %v", s.ID, len(s.Hops), &s.Hops[:1][0] == hops)
	}
}

// spanCount is a SpanSink counting the records it is handed.
type spanCount struct{ ids []int64 }

func (c *spanCount) SpanDone(s *SpanRecord) { c.ids = append(c.ids, s.ID) }

// TestMultiSpanFansOut checks that MultiSpan hands one record to every sink in
// order.
func TestMultiSpanFansOut(t *testing.T) {
	a, b := &spanCount{}, &spanCount{}
	m := MultiSpan{a, b}
	m.SpanDone(&SpanRecord{ID: 1})
	m.SpanDone(&SpanRecord{ID: 2})
	for _, c := range []*spanCount{a, b} {
		if len(c.ids) != 2 || c.ids[0] != 1 || c.ids[1] != 2 {
			t.Errorf("sink saw %v, want [1 2]", c.ids)
		}
	}
}
