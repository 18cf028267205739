package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"wormnet/internal/stats"
	"wormnet/internal/trace"
)

// The serial reference. Until PR 13 the engine carried a hand-written serial
// cycle next to the sharded one, and the equivalence suite compared every
// worker count against it. That code is gone — the serial engine is the
// one-shard case of the sharded schedule — so its output is kept as data:
// testdata/serial_reference.json holds, for every equivalenceConfigs row,
// what the Workers=1 engine of commit e4a0c17 (the last one with the serial
// phase bodies) produced — the saturated-alo row, added later, what the
// Workers=1 engine of acd27e9 (PR 14, the last one whose source queues held
// message objects) did. A bug common to every worker count therefore still
// fails the suite.

// referenceDigest pins one run: a SHA-256 of the full event stream, the
// summary and per-class results (printed with %+v, which round-trips floats
// exactly), the six all-time counters, and — for the rows recorded with span
// tracking on — the finished-span stream. Each stream is hashed twice: as it
// is, and relabeled, every message id replaced by its rank of first
// appearance in the stream. The relabeled hashes were recorded with the
// engine that drew ids from one engine-wide counter, and hold unchanged under
// per-node ids: a change of id scheme may re-record the plain hashes only
// while the relabeled ones stand, which shows it renames messages and nothing
// else. (The engine-wide counter drew ids from 0 in order of first appearance,
// so its relabeled event hashes equal its plain ones.)
type referenceDigest struct {
	Events             int      `json:"events"`
	EventsSHA          string   `json:"events_sha256"`
	EventsRelabeledSHA string   `json:"events_relabeled_sha256"`
	Result             string   `json:"result"`
	Classes            []string `json:"classes,omitempty"`
	Counters           [6]int64 `json:"counters"`
	Spans              int      `json:"spans,omitempty"`
	SpansSHA           string   `json:"spans_sha256,omitempty"`
	SpansRelabeledSHA  string   `json:"spans_relabeled_sha256,omitempty"`
}

// The rows whose span stream (runSpanned's settings) is pinned too are
// faults-storm — kills, retries and recoveries all reset and re-grow hop
// lists — and saturated-alo, where the denials are.

// digestRun digests a finished run of e: its summary res, per-class results
// and all-time counters, and the event stream a listener recorded.
func digestRun(e *Engine, res stats.Result, events []trace.Event) referenceDigest {
	d := referenceDigest{
		Events:             len(events),
		EventsSHA:          hashEvents(events),
		Result:             fmt.Sprintf("%+v", res),
		EventsRelabeledSHA: hashEvents(relabelEvents(events)),
		Counters: [6]int64{
			e.Generated(), e.Delivered(), e.Recovered(),
			e.Aborted(), e.Retried(), e.Dropped(),
		},
	}
	for _, c := range e.Collector().ClassResults() {
		d.Classes = append(d.Classes, fmt.Sprintf("%+v", c))
	}
	return d
}

func hashEvents(events []trace.Event) string {
	h := sha256.New()
	var b []byte
	for _, ev := range events {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(ev.Cycle))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Msg))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Src))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Dst))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Node))
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Len))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// relabeler numbers message ids by first appearance: the first id it is
// asked for is 0, the next new one 1, and so on. Negative ids (a fault
// event's -1) are no message and stay as they are.
type relabeler map[int64]int64

func (r relabeler) of(id int64) int64 {
	if id < 0 {
		return id
	}
	n, ok := r[id]
	if !ok {
		n = int64(len(r))
		r[id] = n
	}
	return n
}

// relabelEvents returns a copy of events with every message id replaced by
// its rank of first appearance in the stream.
func relabelEvents(events []trace.Event) []trace.Event {
	r, out := relabeler{}, make([]trace.Event, len(events))
	for i, ev := range events {
		ev.Msg = r.of(ev.Msg)
		out[i] = ev
	}
	return out
}

// relabelSpans returns copies of spans with every span's message id replaced
// by its rank of first appearance in the stream.
func relabelSpans(spans []*trace.SpanRecord) []*trace.SpanRecord {
	r, out := relabeler{}, make([]*trace.SpanRecord, len(spans))
	for i, s := range spans {
		c := *s
		c.ID = r.of(s.ID)
		out[i] = &c
	}
	return out
}

// checkSpans fails the test unless spans is the span stream want recorded,
// as it is and relabeled.
func checkSpans(t *testing.T, label string, spans []*trace.SpanRecord, want referenceDigest) {
	t.Helper()
	if len(spans) != want.Spans || hashSpans(spans) != want.SpansSHA {
		t.Errorf("%s: span stream diverged from the serial reference: %d spans (sha %s), recorded %d (sha %s)",
			label, len(spans), hashSpans(spans), want.Spans, want.SpansSHA)
	}
	if got := hashSpans(relabelSpans(spans)); got != want.SpansRelabeledSHA {
		t.Errorf("%s: relabeled span stream diverged from the serial reference: sha %s, recorded %s",
			label, got, want.SpansRelabeledSHA)
	}
}

func hashSpans(spans []*trace.SpanRecord) string {
	h := sha256.New()
	var b []byte
	for _, s := range spans {
		b = b[:0]
		for _, v := range []int64{
			s.ID, int64(s.Src), int64(s.Dst), int64(s.Len),
			s.Gen, s.Admit, s.Inject, s.Deliver,
			s.Denies, s.DeniesRuleA, s.DeniesRuleB,
			int64(s.Recoveries), int64(s.Retries), int64(len(s.Hops)),
		} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		for _, hop := range s.Hops {
			b = binary.LittleEndian.AppendUint64(b, uint64(hop.Node))
			b = binary.LittleEndian.AppendUint64(b, uint64(hop.Arrive))
			b = binary.LittleEndian.AppendUint64(b, uint64(hop.Alloc))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serialReference loads the recorded digests, one per equivalenceConfigs row.
func serialReference(t *testing.T) map[string]referenceDigest {
	t.Helper()
	raw, err := os.ReadFile("testdata/serial_reference.json")
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]referenceDigest{}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	for name := range equivalenceConfigs() {
		if _, ok := ref[name]; !ok {
			t.Fatalf("no serial reference recorded for row %q", name)
		}
	}
	return ref
}

// checkReference fails the test, naming every part that differs, unless got
// (span fields aside) is the recorded digest.
func checkReference(t *testing.T, label string, got, want referenceDigest) {
	t.Helper()
	want.Spans, want.SpansSHA, want.SpansRelabeledSHA = 0, "", ""
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Result != want.Result {
		t.Errorf("%s: result diverged from the serial reference:\n got  %s\n want %s", label, got.Result, want.Result)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) {
		t.Errorf("%s: class results diverged:\n got  %v\n want %v", label, got.Classes, want.Classes)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: counters diverged: got %v want %v", label, got.Counters, want.Counters)
	}
	if got.Events != want.Events || got.EventsSHA != want.EventsSHA {
		t.Errorf("%s: event stream diverged: %d events (sha %s), reference has %d (sha %s)",
			label, got.Events, got.EventsSHA, want.Events, want.EventsSHA)
	}
	if got.EventsRelabeledSHA != want.EventsRelabeledSHA {
		t.Errorf("%s: relabeled event stream diverged: sha %s, reference has %s",
			label, got.EventsRelabeledSHA, want.EventsRelabeledSHA)
	}
}

// runReference runs cfg to completion at the given worker count and checks
// the run against the recorded serial digest.
func runReference(t *testing.T, label string, cfg Config, workers int, want referenceDigest) {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	finishReference(t, label, e, &eventTap{}, want)
}

// finishReference attaches tap (which may already hold the run's earlier
// events), runs e to completion and checks the run against the recorded
// serial digest.
func finishReference(t *testing.T, label string, e *Engine, tap *eventTap, want referenceDigest) {
	t.Helper()
	e.SetListener(tap)
	res := e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants violated at end of run: %v", label, err)
	}
	checkReference(t, label, digestRun(e, res, tap.events), want)
}
