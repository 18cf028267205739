package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// TestReadReplayRoundTrip writes a stream the way a traced run does — a
// manifest, generation events of two nodes, other event kinds — and reads the
// generation events back as per-node scripts in stream order.
func TestReadReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	if err := w.Write(NewManifest("test", 1, nil)); err != nil {
		t.Fatal(err)
	}
	sink := NewTraceSink(w)
	sink.Emit(trace.Event{Cycle: 3, Kind: trace.KindGenerated, Msg: 0, Src: 1, Dst: 5, Node: 1, Len: 16})
	sink.Emit(trace.Event{Cycle: 4, Kind: trace.KindInjected, Msg: 0, Src: 1, Dst: 5, Node: 1, Len: 16})
	sink.Emit(trace.Event{Cycle: 7, Kind: trace.KindGenerated, Msg: 1, Src: 2, Dst: 0, Node: 2, Len: 4})
	sink.Emit(trace.Event{Cycle: 9, Kind: trace.KindGenerated, Msg: 2, Src: 1, Dst: 3, Node: 1, Len: 8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReplay(bytes.NewReader(append(buf.Bytes(), '\n'))) // a blank line is skipped
	if err != nil {
		t.Fatal(err)
	}
	want := map[topology.NodeID][]traffic.Event{
		1: {{Cycle: 3, Dst: 5, Length: 16}, {Cycle: 9, Dst: 3, Length: 8}},
		2: {{Cycle: 7, Dst: 0, Length: 4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay scripts %v, want %v", got, want)
	}
}

// TestReadReplayRefusesBadLines checks that a line that is not JSON, and a
// generation event without a length, fail the read with the line number.
func TestReadReplayRefusesBadLines(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"not json", `{"t":"event","kind":"generated","len":4}` + "\n{oops\n", "line 2"},
		{"no length", `{"t":"event","kind":"generated","cycle":1,"src":0,"dst":1}`, "without length"},
	} {
		if _, err := ReadReplay(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCreateTraceJSON checks that the file writer truncates its file, owns it
// (Close writes the footer and closes it) and fails on a path it cannot
// create.
func TestCreateTraceJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := os.WriteFile(path, []byte("stale content that is longer than the trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := CreateTraceJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SpanDone(&trace.SpanRecord{ID: 1, Gen: 0, Admit: 2, Inject: 3, Deliver: 9})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("file is not a trace with events (%v): %s", err, raw)
	}
	if _, err := CreateTraceJSON(filepath.Join(path, "under-a-file")); err == nil {
		t.Error("CreateTraceJSON under a regular file succeeded")
	}
}
