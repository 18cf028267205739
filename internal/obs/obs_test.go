package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/trace"
)

func testRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.NewCounter("sim_delivered_total", "messages delivered").Add(42)
	r.NewGauge("sim_queue_depth", "queued messages").Set(3.5)
	h := r.NewHistogram("sim_phase_ns", "phase wall time", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheus(&b, testRegistry()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sim_delivered_total messages delivered",
		"# TYPE sim_delivered_total counter",
		"sim_delivered_total 42",
		"# TYPE sim_queue_depth gauge",
		"sim_queue_depth 3.5",
		"# TYPE sim_phase_ns histogram",
		`sim_phase_ns_bucket{le="100"} 1`,
		`sim_phase_ns_bucket{le="1000"} 2`,
		`sim_phase_ns_bucket{le="+Inf"} 3`,
		"sim_phase_ns_sum 5550",
		"sim_phase_ns_count 3",
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	man := NewManifest("test", 7, map[string]any{"k": 4})
	if err := w.Write(man); err != nil {
		t.Fatal(err)
	}
	reg := testRegistry()
	NewMetricsLogger(w, reg).Snapshot(128)
	NewTraceSink(w).Emit(trace.Event{Cycle: 5, Kind: trace.KindInjected, Msg: 9, Src: 1, Dst: 2, Node: 1})
	if err := WriteResult(w, 256, map[string]any{"accepted": 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec["t"].(string))
		switch rec["t"] {
		case "manifest":
			if rec["tool"] != "test" || rec["seed"].(float64) != 7 {
				t.Errorf("bad manifest: %v", rec)
			}
		case "snapshot":
			m := rec["metrics"].(map[string]any)
			if m["sim_delivered_total"].(float64) != 42 {
				t.Errorf("bad snapshot metrics: %v", m)
			}
			if rec["cycle"].(float64) != 128 {
				t.Errorf("bad snapshot cycle: %v", rec)
			}
			h := m["sim_phase_ns"].(map[string]any)
			if h["count"].(float64) != 3 {
				t.Errorf("bad histogram in snapshot: %v", h)
			}
		case "event":
			if rec["kind"] != "injected" || rec["msg"].(float64) != 9 {
				t.Errorf("bad event: %v", rec)
			}
		}
	}
	want := []string{"manifest", "snapshot", "event", "result"}
	if len(kinds) != len(want) {
		t.Fatalf("record kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record kinds %v, want %v", kinds, want)
		}
	}
}

// errWriter fails after n bytes to exercise sticky errors.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	e.n -= len(p)
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	w := NewJSONLWriter(&errWriter{n: 8})
	for i := 0; i < 100000; i++ {
		w.Write(map[string]int{"i": i}) //nolint:errcheck // checking at Close
	}
	if err := w.Close(); err == nil {
		t.Fatal("want sticky write error at Close")
	}
	if err := w.Write("more"); err == nil {
		t.Fatal("writes after error must keep failing")
	}
}

// CreateJSONL truncates its file, owns it (Close closes it, so a second Close
// does not fail on a closed file), and fails on a path it cannot create.
func TestCreateJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte("stale line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Write(map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"i\":0}\n{\"i\":1}\n"; string(got) != want {
		t.Errorf("file holds %q, want %q", got, want)
	}
	if _, err := CreateJSONL(filepath.Join(path, "under-a-file")); err == nil {
		t.Error("CreateJSONL under a regular file succeeded")
	}
}

func TestMonitorEndpoints(t *testing.T) {
	reg := testRegistry()
	man := NewManifest("wormsim", 1, map[string]any{"k": 8})
	mon := NewMonitor(reg, man, func() int64 { return 4096 })
	srv := httptest.NewServer(mon.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "sim_delivered_total 42") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok cycle=4096") {
		t.Errorf("/healthz: code %d body %q", code, body)
	}
	code, body := get("/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot: code %d", code)
	}
	var snap struct {
		Manifest Manifest       `json:"manifest"`
		Cycle    int64          `json:"cycle"`
		Metrics  map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v\n%s", err, body)
	}
	if snap.Cycle != 4096 || snap.Manifest.Tool != "wormsim" || snap.Metrics["sim_queue_depth"].(float64) != 3.5 {
		t.Errorf("bad snapshot: %+v", snap)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
}

func TestMonitorServeAndClose(t *testing.T) {
	mon := NewMonitor(metrics.NewRegistry(), Manifest{}, nil)
	if err := mon.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := mon.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz over socket: %d", resp.StatusCode)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecorder(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	fr := NewFlightRecorder(w, testRegistry(), 64, 100, 3)

	// Background traffic, no burst: deadlocks spread far apart.
	for c := int64(0); c < 1000; c += 200 {
		fr.Emit(trace.Event{Cycle: c, Kind: trace.KindInjected})
		fr.Emit(trace.Event{Cycle: c, Kind: trace.KindDeadlock})
	}
	if fr.Dumps() != 0 {
		t.Fatalf("no burst yet, got %d dumps", fr.Dumps())
	}

	// Burst: 3 drops within 100 cycles.
	fr.Emit(trace.Event{Cycle: 2000, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 2010, Kind: trace.KindDeadlock})
	fr.Emit(trace.Event{Cycle: 2020, Kind: trace.KindDropped})
	if fr.Dumps() != 1 {
		t.Fatalf("burst should dump once, got %d", fr.Dumps())
	}
	// Cooldown: more burst events right after must not re-fire.
	fr.Emit(trace.Event{Cycle: 2030, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 2040, Kind: trace.KindDropped})
	if fr.Dumps() != 1 {
		t.Fatalf("cooldown violated: %d dumps", fr.Dumps())
	}
	// After the cooldown, a new burst fires again.
	fr.Emit(trace.Event{Cycle: 2200, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 2210, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 2220, Kind: trace.KindDropped})
	if fr.Dumps() != 2 {
		t.Fatalf("post-cooldown burst should dump, got %d", fr.Dumps())
	}

	w.Close()
	var recs []flightRecord
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec flightRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 flight records, got %d", len(recs))
	}
	if recs[0].Record != "flight" || recs[0].Cycle != 2020 || len(recs[0].Events) == 0 {
		t.Errorf("bad flight record: %+v", recs[0])
	}
	if recs[0].Metrics == nil {
		t.Error("flight record should embed a metrics snapshot")
	}
}

func TestFlightRecorderSaturationTrigger(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	fr := NewFlightRecorder(w, nil, 64, 100, 3)
	fr.SetSaturationTrigger(50, 4)
	fr.RetainSpans(2)

	// Feed finished spans; only the last two survive the ring.
	for i := int64(0); i < 5; i++ {
		fr.SpanDone(&trace.SpanRecord{ID: i, Gen: i * 10, Admit: i*10 + 1, Deliver: i*10 + 5,
			Hops: []trace.SpanHop{{Node: 3, Arrive: i*10 + 1, Alloc: i*10 + 2}}})
	}

	// Throttle events too far apart: no dump.
	for c := int64(0); c < 400; c += 100 {
		fr.Emit(trace.Event{Cycle: c, Kind: trace.KindThrottled})
	}
	if fr.Dumps() != 0 {
		t.Fatalf("sparse throttles fired a dump: %d", fr.Dumps())
	}
	// 4 throttles within 50 cycles: saturation onset.
	for c := int64(1000); c < 1040; c += 10 {
		fr.Emit(trace.Event{Cycle: c, Kind: trace.KindThrottled})
	}
	if fr.Dumps() != 1 {
		t.Fatalf("saturation spike should dump once, got %d", fr.Dumps())
	}
	// Burst trigger still works independently and shares the cooldown.
	fr.Emit(trace.Event{Cycle: 1050, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 1051, Kind: trace.KindDropped})
	fr.Emit(trace.Event{Cycle: 1052, Kind: trace.KindDropped})
	if fr.Dumps() != 1 {
		t.Fatalf("cooldown should suppress the burst dump, got %d", fr.Dumps())
	}

	w.Close()
	var recs []flightRecord
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec flightRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 flight record, got %d", len(recs))
	}
	rec := recs[0]
	if rec.Reason != "saturation" || rec.Cycle != 1030 || rec.Window != 50 || rec.Bursts != 4 {
		t.Errorf("bad saturation record: %+v", rec)
	}
	if len(rec.Spans) != 2 || rec.Spans[0].ID != 3 || rec.Spans[1].ID != 4 {
		t.Fatalf("want retained spans [3 4], got %+v", rec.Spans)
	}
	if rec.Spans[1].Deliver != 45 || len(rec.Spans[1].Hops) != 1 || rec.Spans[1].Hops[0].Node != 3 {
		t.Errorf("bad span payload: %+v", rec.Spans[1])
	}
}

func TestFlightRecorderSaturationDisabledByDefault(t *testing.T) {
	var buf bytes.Buffer
	fr := NewFlightRecorder(NewJSONLWriter(&buf), nil, 64, 100, 1)
	for c := int64(0); c < 100; c++ {
		fr.Emit(trace.Event{Cycle: c, Kind: trace.KindThrottled})
	}
	if fr.Dumps() != 0 {
		t.Fatalf("throttle events must not dump when the trigger is off, got %d", fr.Dumps())
	}
}

func TestTraceJSONWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceJSONWriter(&buf)
	// A delivered span with a queue wait, two hops and a drain.
	w.SpanDone(&trace.SpanRecord{
		ID: 7, Src: 1, Dst: 4, Len: 16, Gen: 100, Admit: 110, Inject: 112, Deliver: 160,
		Denies: 3, DeniesRuleA: 2, DeniesRuleB: 1,
		Hops: []trace.SpanHop{
			{Node: 1, Arrive: 110, Alloc: 112},
			{Node: 2, Arrive: 113, Alloc: 120},
		},
	})
	// A dropped span: no Deliver, one hop never granted.
	w.SpanDone(&trace.SpanRecord{
		ID: 9, Src: 2, Dst: 5, Len: 16, Gen: 200, Admit: 210, Inject: -1, Deliver: -1,
		Hops: []trace.SpanHop{{Node: 2, Arrive: 210, Alloc: -1}},
	})
	if w.Spans() != 2 {
		t.Fatalf("Spans() = %d, want 2", w.Spans())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  *int           `json:"pid"`
			Tid  *int64         `json:"tid"`
			Name string         `json:"name"`
			Ts   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Pid == nil || ev.Tid == nil {
			t.Errorf("event %q missing pid/tid", ev.Name)
		}
		if ev.Ph == "X" {
			if ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("X event %q missing ts/dur or negative dur: %+v", ev.Name, ev)
			}
		}
	}
	if byName["thread_name"] != 2 || byName["life"] != 2 || byName["queue-wait"] != 2 {
		t.Errorf("unexpected event census: %v", byName)
	}
	// Two granted hops on the first span, the ungranted one omitted.
	if byName["hop n1"] != 1 || byName["hop n2"] != 1 {
		t.Errorf("hop slices missing: %v", byName)
	}
	if byName["drain"] != 1 {
		t.Errorf("want exactly one drain slice: %v", byName)
	}
}

func TestTraceJSONWriterStickyError(t *testing.T) {
	w := NewTraceJSONWriter(&errWriter{n: 8})
	for i := int64(0); i < 100000; i++ {
		w.SpanDone(&trace.SpanRecord{ID: i, Gen: 0, Deliver: 1})
	}
	if err := w.Close(); err == nil {
		t.Fatal("want sticky write error at Close")
	}
	if w.Err() == nil {
		t.Fatal("Err() should report the sticky error")
	}
}

func TestManifest(t *testing.T) {
	m := NewManifest("sweep", 99, map[string]any{"rate": 0.3})
	if m.Record != "manifest" || m.Tool != "sweep" || m.Seed != 99 || m.Go == "" {
		t.Errorf("bad manifest: %+v", m)
	}
	// GitDescribe inside this repo should find a revision; tolerate "" so
	// the test also passes from an exported tarball.
	_ = GitDescribe()
}
