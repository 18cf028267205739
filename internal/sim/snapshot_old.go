package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// v2Fields is the retired field of the second snapshot layout (checkpoint
// version 2): one engine-wide id counter, where a node now numbers its own.
type v2Fields struct{ NextID int64 }

// v1Fields are the retired fields of the first snapshot layout that the
// current one keeps something of: each buffer's flits and each message's
// path, and the engine-wide id counter of the second.
type v1Fields struct {
	Messages []struct{ Path []v1Loc }
	Nodes    []struct{ In []struct{ Flits []v1Flit } }
	NextID   int64
}

type v1Loc struct {
	Node     int32
	Port, VC int8
}

type v1Flit struct {
	Msg        int64
	Seq        int32
	Head, Tail bool
}

// DecodeV2Snapshot decodes a gob payload of the second snapshot layout: its
// fields less NextID, which upgradeV2 turns into the nodes' counters.
func DecodeV2Snapshot(payload []byte) (*Snapshot, error) {
	s, old := new(Snapshot), new(v2Fields)
	for _, v := range []any{s, old} {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
			return nil, err
		}
	}
	s.upgradeV2(old.NextID)
	return s, nil
}

// upgradeV2 gives every node of a snapshot of the second layout the id
// counter ⌈nextID/N⌉, N the node count: node n then draws ids from
// ⌈nextID/N⌉*N + n on, above every id the engine-wide counter drew, and its
// waiting messages load as explicit records.
func (s *Snapshot) upgradeV2(nextID int64) {
	n := int64(len(s.Nodes))
	if n == 0 {
		return
	}
	seq := (nextID + n - 1) / n
	for i := range s.Nodes {
		s.Nodes[i].NextSeq = seq
	}
}

// DecodeV1Snapshot decodes a gob payload of the first snapshot layout, which
// also stored what the engine derives: every buffered flit, each message's
// whole path, each output VC's owner and an injection channel's copy of its
// message's length and destination. It decodes the payload twice, into a
// Snapshot (the fields both layouts have) and into v1Fields. A flit list
// becomes its run, refused unless it is one message's run with the flags its
// positions give, and a path its first entry, the Tail; load checks the rest.
// The result, a snapshot of the second layout, goes on through upgradeV2.
func DecodeV1Snapshot(payload []byte) (*Snapshot, error) {
	s, old := new(Snapshot), new(v1Fields)
	for _, v := range []any{s, old} {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
			return nil, err
		}
	}
	for i, sn := range old.Nodes {
		for c, vc := range sn.In {
			if len(vc.Flits) == 0 {
				continue
			}
			first, length := vc.Flits[0], int32(-1) // -1: load refuses a message the table lacks
			if j := sort.Search(len(s.Messages), func(j int) bool { return s.Messages[j].ID >= first.Msg }); j < len(s.Messages) && s.Messages[j].ID == first.Msg {
				length = s.Messages[j].Length
			}
			for j, f := range vc.Flits {
				if f.Msg != first.Msg || f.Seq != first.Seq+int32(j) || f.Head != (f.Seq == 0) ||
					f.Tail && j != len(vc.Flits)-1 || length >= 0 && f.Tail != (f.Seq == length-1) {
					return nil, fmt.Errorf("sim: node %d vc %d flit %d is not the next flit of one message's run", i, c, j)
				}
			}
			s.Nodes[i].In[c] = SnapVC{Msg: first.Msg, Seq: first.Seq, N: int32(len(vc.Flits)), Route: s.Nodes[i].In[c].Route}
		}
	}
	for i, m := range old.Messages {
		if len(m.Path) == 0 {
			continue
		}
		// A node lists an arbiter pointer for each physical port and ejection
		// channel, and an input VC for each VC of each physical port.
		loc := m.Path[0]
		if loc.Node < 0 || int(loc.Node) >= len(s.Nodes) {
			return nil, fmt.Errorf("sim: message %d path entry at node %d of %d", s.Messages[i].ID, loc.Node, len(s.Nodes))
		}
		sn := &s.Nodes[loc.Node]
		ports := len(sn.ArbNext) - len(sn.Ej)
		if ports < 1 || int(loc.Port) >= ports || loc.Port < 0 || loc.VC < 0 || int(loc.VC) >= len(sn.In)/ports {
			return nil, fmt.Errorf("sim: message %d path entry (%d,%d,%d) on %d ports of %d input VCs",
				s.Messages[i].ID, loc.Node, loc.Port, loc.VC, ports, len(sn.In))
		}
		s.Messages[i].Tail = 1 + loc.Node*int32(len(sn.In)) + int32(int(loc.Port)*(len(sn.In)/ports)+int(loc.VC))
	}
	s.upgradeV2(old.NextID)
	return s, nil
}
