package sim

// Message-lifecycle span instrumentation. A span decomposes one message's
// latency into source-queue wait, per-hop channel-acquire block time and
// drain time, with the injection limiter's denial pushback attributed to the
// ALO rules — the "where did the cycles go" view the saturation analysis
// needs (DESIGN.md §14).
//
// Like the metrics layer, spans are strictly observational: every hook reads
// engine state and writes only span state, so results are bit-identical with
// spans on or off (TestSpanDeterminism pins this at workers 1 and 4), and a
// disabled engine (e.spans == nil) pays one nil check per site.
//
// A span's lifecycle edges — generation, a throttle, a teardown, delivery and
// a drop — come from Engine.record (spanRecord). Two marks stay in the
// parallel sections, where the engine does the work, because nothing records
// the cycle otherwise: a hop opening (an injection-channel claim, or a head
// flit landing in a buffer: spanHop) and a channel grant closing it
// (spanAlloc). The head entering the network needs no mark: a finishing span
// reads it off the message's InjectTime.
//
// Sampling is deterministic: messages are generated in serial commit order on
// every path, so taking every every-th of them (by the all-time generated
// count) selects the same messages — and produces the same records in the
// same order — for any worker count.
//
// Concurrency (worker pool): the live-record map is mutated only in
// serial contexts — record's, which run at barrier arrival or between cycles.
// The parallel sections only *read* the map and write fields of the looked-up
// record, and every such write is exclusive for the cycle: a claim runs on
// the message's source-node shard, allocation on the shard holding its
// header, and the head flit (a single flit) arrives at most once per cycle —
// its cross-shard hop-append is ordered behind the ring publish the
// consumer's acquire-load synchronizes with.

import (
	"wormnet/internal/message"
	"wormnet/internal/metrics"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// DefaultSpanSampleEvery is the default span-sampling period: one in every
// N generated messages carries a span.
const DefaultSpanSampleEvery = 16

// spanCycleBounds are the cycle-valued histogram buckets shared by the
// blocked-time decompositions (queue wait, per-hop block, drain, latency).
var spanCycleBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// engineSpans is the span tracker: the live records of sampled in-flight
// messages, a free list that recycles finished records (steady state
// allocates nothing once Hops capacities have grown to the path lengths the
// workload produces), the optional sink, and the aggregated histograms.
type engineSpans struct {
	every int64
	sink  trace.SpanSink
	live  map[message.ID]*trace.SpanRecord
	free  []*trace.SpanRecord

	// Aggregates (nil metrics when spans run without a registry).
	queueWait  *metrics.Histogram
	hopBlock   *metrics.Histogram
	drainTime  *metrics.Histogram
	netLatency *metrics.Histogram
	latency    *metrics.Histogram
	hopCount   *metrics.Histogram
	sampled    *metrics.Counter
	completed  *metrics.Counter
	discarded  *metrics.Counter
}

// EnableSpans attaches message-lifecycle span tracking to a fresh engine
// (before the first Step). One in every sampleEvery generated messages
// (<= 0 selects DefaultSpanSampleEvery) is tracked; finished spans are
// aggregated into reg's sim_span_* series and handed to sink. Either reg or
// sink may be nil (aggregate-only / export-only); passing both nil detaches.
// Spans never change simulation results.
func (e *Engine) EnableSpans(reg *metrics.Registry, sampleEvery int64, sink trace.SpanSink) {
	if reg == nil && sink == nil {
		e.spans = nil
		return
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultSpanSampleEvery
	}
	s := &engineSpans{
		every: sampleEvery,
		sink:  sink,
		live:  make(map[message.ID]*trace.SpanRecord),
	}
	if reg != nil {
		h := func(name, help string) *metrics.Histogram {
			return reg.NewHistogram(name, help, spanCycleBounds)
		}
		s.queueWait = h("sim_span_queue_wait_cycles", "sampled spans: source-queue wait (generation to injection-channel claim)")
		s.hopBlock = h("sim_span_hop_block_cycles", "sampled spans: per-hop channel-acquire block time (one observation per hop)")
		s.drainTime = h("sim_span_drain_cycles", "sampled spans: drain time (last channel grant to tail delivery)")
		s.netLatency = h("sim_span_net_latency_cycles", "sampled spans: in-network latency (claim to delivery)")
		s.latency = h("sim_span_latency_cycles", "sampled spans: total latency (generation to delivery)")
		s.hopCount = reg.NewHistogram("sim_span_hops", "sampled spans: channel acquisitions of the final attempt",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24})
		s.sampled = reg.NewCounter("sim_spans_sampled_total", "messages selected for span tracking")
		s.completed = reg.NewCounter("sim_spans_completed_total", "sampled spans finished by delivery")
		s.discarded = reg.NewCounter("sim_spans_discarded_total", "sampled spans finished by a permanent drop")
	}
	e.spans = s
}

// spanRecord drives a span through the lifecycle edges record sees: it starts
// at generation, counts a throttle, truncates at a teardown (a recovery or a
// retry), and finishes at delivery or a drop.
func (e *Engine) spanRecord(ev *event) {
	switch ev.kind {
	case trace.KindGenerated:
		e.spanGenerate(ev.id, ev.src, ev.dst, int(ev.length))
	case trace.KindThrottled:
		e.spanDeny(ev.id, ev.fails)
	case trace.KindRecovered, trace.KindRetried:
		if rec, ok := e.spans.live[ev.id]; ok {
			rec.Hops = rec.Hops[:0] // the next claim starts a fresh attempt
		}
	case trace.KindDelivered:
		e.spanDeliver(ev.m)
	case trace.KindDropped:
		e.spanDiscard(ev.m)
	}
}

// spanGenerate starts a span for the message id just generated if it is one
// of every every generated messages: the generated count counts it already.
func (e *Engine) spanGenerate(id message.ID, src, dst topology.NodeID, length int) {
	s := e.spans
	if (e.total[trace.KindGenerated]-1)%s.every != 0 {
		return
	}
	var rec *trace.SpanRecord
	if n := len(s.free); n > 0 {
		rec = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		rec = &trace.SpanRecord{}
	}
	rec.Reset()
	rec.ID = int64(id)
	rec.Src, rec.Dst, rec.Len = src, dst, length
	rec.Gen = e.now
	s.live[id] = rec
	if s.sampled != nil {
		s.sampled.Inc()
	}
}

// spanDeny charges one limiter denial, with the rules it names as failed, to
// the span of the throttled queue head id.
func (e *Engine) spanDeny(id message.ID, fails uint8) {
	rec, ok := e.spans.live[id]
	if !ok {
		return
	}
	rec.Denies++
	if fails&failA != 0 {
		rec.DeniesRuleA++
	}
	if fails&failB != 0 {
		rec.DeniesRuleB++
	}
}

// spanHop opens a hop of message id's span at node at, whose block time runs
// until spanAlloc: the source hop of an attempt when the message claims an
// injection channel there (the first claim is its admit time too), or the
// head flit landing in one of at's input buffers. Runs on the shard owning at.
func (e *Engine) spanHop(id message.ID, at topology.NodeID) {
	rec, ok := e.spans.live[id]
	if !ok {
		return
	}
	if rec.Admit < 0 {
		rec.Admit = e.now
	}
	rec.Hops = append(rec.Hops, trace.SpanHop{Node: at, Arrive: e.now, Alloc: -1})
}

// spanAlloc records the channel grant that unblocks m's newest hop (the
// source hop for injection routing, the head's current hop in the network,
// the ejection-channel grant at the destination). Runs on the shard holding
// the header.
func (e *Engine) spanAlloc(m *message.Message) {
	rec, ok := e.spans.live[m.ID]
	if !ok {
		return
	}
	if n := len(rec.Hops); n > 0 && rec.Hops[n-1].Alloc < 0 {
		rec.Hops[n-1].Alloc = e.now
	}
}

// spanDeliver finishes m's span at delivery: aggregate, hand to the sink,
// recycle. Sinks see spans in delivery order at any worker count.
func (e *Engine) spanDeliver(m *message.Message) {
	s := e.spans
	rec, ok := s.live[m.ID]
	if !ok {
		return
	}
	rec.Deliver = e.now
	rec.Inject, rec.Recoveries, rec.Retries = m.InjectTime, int(m.Recoveries), int(m.Retries)
	if s.queueWait != nil {
		s.queueWait.Observe(float64(rec.QueueWait()))
		for _, hp := range rec.Hops {
			if hp.Alloc >= 0 {
				s.hopBlock.Observe(float64(hp.Alloc - hp.Arrive))
			}
		}
		if d := rec.DrainCycles(); d >= 0 {
			s.drainTime.Observe(float64(d))
		}
		s.netLatency.Observe(float64(rec.NetLatency()))
		s.latency.Observe(float64(rec.Deliver - rec.Gen))
		s.hopCount.Observe(float64(len(rec.Hops)))
		s.completed.Inc()
	}
	s.finish(m.ID, rec)
}

// spanDiscard finishes m's span at a permanent drop: the partial record
// (Deliver stays -1) still reaches the sink.
func (e *Engine) spanDiscard(m *message.Message) {
	s := e.spans
	rec, ok := s.live[m.ID]
	if !ok {
		return
	}
	rec.Inject, rec.Recoveries, rec.Retries = m.InjectTime, int(m.Recoveries), int(m.Retries)
	if s.discarded != nil {
		s.discarded.Inc()
	}
	s.finish(m.ID, rec)
}

// finish emits the record, removes it from the live set and recycles it.
func (s *engineSpans) finish(id message.ID, rec *trace.SpanRecord) {
	if s.sink != nil {
		s.sink.SpanDone(rec)
	}
	delete(s.live, id)
	s.free = append(s.free, rec)
}
