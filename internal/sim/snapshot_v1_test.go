package sim

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// v1Payload is a first-layout snapshot cut down to what DecodeV1Snapshot
// reads: gob matches fields by name, so it encodes as one.
type v1Payload struct {
	Messages []v1Message
	Nodes    []v1Node
}

type v1Message struct {
	ID     int64
	Length int32
	Path   []v1Loc
}

type v1Node struct {
	In      []v1VC
	ArbNext []int32
	Ej      []SnapEj
}

type v1VC struct {
	Flits []v1Flit
	Route SnapRoute
}

// encodeV1 encodes a v1Payload of two nodes, each of two ports with two VCs
// and one ejection channel, whose node 1 holds flits in its last input VC,
// and in which message 1 (4 flits long) has path and message 2 (8 long) none.
func encodeV1(t *testing.T, flits []v1Flit, path []v1Loc) []byte {
	t.Helper()
	p := v1Payload{Messages: []v1Message{{ID: 1, Length: 4, Path: path}, {ID: 2, Length: 8}}}
	for range 2 {
		p.Nodes = append(p.Nodes, v1Node{In: make([]v1VC, 4), ArbNext: make([]int32, 3), Ej: []SnapEj{{Msg: -1}}})
	}
	p.Nodes[1].In[3].Flits = flits
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeV1Snapshot pins the conversion of the first layout: a flit list
// becomes its run and a path its first entry, numbered node by node; a list
// that is not one message's run, and a path entry naming no input VC of the
// network, are refused.
func TestDecodeV1Snapshot(t *testing.T) {
	s, err := DecodeV1Snapshot(encodeV1(t,
		[]v1Flit{{Msg: 1, Seq: 2}, {Msg: 1, Seq: 3, Tail: true}},
		[]v1Loc{{Node: 1, Port: 1, VC: 0}, {Node: 0, Port: 0, VC: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if vc := s.Nodes[1].In[3]; vc.Msg != 1 || vc.Seq != 2 || vc.N != 2 {
		t.Errorf("the flit list converts to the run %+v, want message 1 from flit 2, 2 flits", vc)
	}
	if s.Nodes[0].In[3].N != 0 || s.Nodes[1].In[0].N != 0 {
		t.Error("an empty flit list converts to a run")
	}
	// Node 1 of four input VCs, port 1 of two VCs, VC 0: the seventh, 1 + 6.
	if s.Messages[0].Tail != 7 || s.Messages[1].Tail != 0 {
		t.Errorf("Tails %d and %d, want 7 (the path's first entry) and 0 (no path)", s.Messages[0].Tail, s.Messages[1].Tail)
	}

	for name, flits := range map[string][]v1Flit{
		"two messages":     {{Msg: 1, Seq: 1}, {Msg: 2, Seq: 2}},
		"a gap":            {{Msg: 1, Seq: 0, Head: true}, {Msg: 1, Seq: 2}},
		"a repeat":         {{Msg: 2, Seq: 4}, {Msg: 2, Seq: 4}},
		"descending":       {{Msg: 2, Seq: 5}, {Msg: 2, Seq: 4}},
		"a head mid-run":   {{Msg: 2, Seq: 3, Head: true}},
		"no head flag":     {{Msg: 2, Seq: 0}},
		"a tail mid-run":   {{Msg: 2, Seq: 3, Tail: true}, {Msg: 2, Seq: 4}},
		"no tail flag":     {{Msg: 1, Seq: 3}},
		"a tail too early": {{Msg: 2, Seq: 6, Tail: true}},
		"a flit behind it": {{Msg: 1, Seq: 3, Tail: true}, {Msg: 1, Seq: 4}},
	} {
		if _, err := DecodeV1Snapshot(encodeV1(t, flits, nil)); err == nil || !strings.Contains(err.Error(), "one message's run") {
			t.Errorf("%s: got %v, want the list refused as no run", name, err)
		}
	}
	for _, loc := range []v1Loc{{Node: 2}, {Node: -1}, {Port: 2}, {Port: -1}, {VC: 2}, {VC: -1}} {
		if _, err := DecodeV1Snapshot(encodeV1(t, nil, []v1Loc{loc})); err == nil || !strings.Contains(err.Error(), "path entry") {
			t.Errorf("path entry %+v: got %v, want it refused", loc, err)
		}
	}
	if _, err := DecodeV1Snapshot([]byte("not gob")); err == nil {
		t.Error("a payload that is no gob decodes")
	}
}
