package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"strings"
	"testing"

	"wormnet/internal/baseline"
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

// TestDecodeV2Snapshot pins the conversion of the second layout's id counter:
// every node numbers its next message ⌈NextID/N⌉, so it draws ids above all
// the engine-wide counter drew.
func TestDecodeV2Snapshot(t *testing.T) {
	var buf bytes.Buffer
	payload := struct {
		NextID int64
		Nodes  []struct{ ArbNext []int32 }
	}{NextID: 33, Nodes: make([]struct{ ArbNext []int32 }, 16)}
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	s, err := DecodeV2Snapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, sn := range s.Nodes {
		if sn.NextSeq != 3 {
			t.Fatalf("node %d numbers its next message %d, want ⌈33/16⌉ = 3", i, sn.NextSeq)
		}
	}
}

// parentCheckpoints are the checkpoint files earlier layouts wrote
// (internal/checkpoint's parentWritten): the run each was taken from, at
// cycle 700, and the frame's version.
var parentCheckpoints = []struct {
	file    string
	version uint32
	cfg     func() Config
}{
	{"../checkpoint/testdata/written_by_pr13.wncp", 1, fixtureShortConfig},
	{"../checkpoint/testdata/dril_bursty.wncp", 1, fixtureDrilBurstyConfig},
	{"../checkpoint/testdata/alo_uniform_v2.wncp", 2, fixtureShortConfig},
}

func fixtureShortConfig() Config {
	cfg := QuickConfig()
	cfg.Rate = 1.5
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 500
	return cfg
}

func fixtureDrilBurstyConfig() Config {
	cfg := fixtureShortConfig()
	cfg.Rate = 1.2
	cfg.Burst.OnMean, cfg.Burst.OffMean = 150, 300
	cfg.Limiter, cfg.LimiterName = baseline.NewDRIL(), "dril"
	return cfg
}

// TestParentCheckpointsRelabeled holds today's engine to the checkpoint files
// earlier layouts wrote: run to the file's cycle, an engine that queues every
// waiting message as a record — as those layouts did — snapshots to what the
// file converts to, once both have their ids relabeled (relabeled), the nodes
// numbering their own messages now.
func TestParentCheckpointsRelabeled(t *testing.T) {
	for _, fx := range parentCheckpoints {
		raw, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		const header = 20 // magic, version, length, CRC (internal/checkpoint)
		if v := binary.LittleEndian.Uint32(raw[4:8]); v != fx.version {
			t.Fatalf("%s: a version-%d frame, want %d", fx.file, v, fx.version)
		}
		decode := DecodeV1Snapshot
		if fx.version == 2 {
			decode = DecodeV2Snapshot
		}
		then, err := decode(raw[header:])
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(fx.cfg())
		if err != nil {
			t.Fatal(err)
		}
		e.replay = false
		for e.Now() < 700 {
			e.Step()
		}
		now, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		got, _ := snapBytes(t, relabeled(t, now))
		if want, _ := snapBytes(t, relabeled(t, then)); !bytes.Equal(got, want) {
			t.Errorf("%s: the same run at the same cycle no longer encodes to the bytes the file converts to, ids relabeled", fx.file)
		}
	}
}
