package sim

// Canonical snapshot form — the model checker's state identity.
//
// Two engine states must hash equal iff their future behaviour is
// identical. The gob checkpoint encoding is unsuitable for that directly:
// it carries the config digest, all-time counters, stats and metrics
// (observers, not behaviour), and raw message IDs, which depend on the
// *order* messages were created — two schedules reaching the same logical
// state through different injection orders hold the same messages under
// different IDs. CanonicalBytes therefore re-encodes the snapshot with:
//
//   - message IDs remapped to dense indices in a fixed traversal order
//     (SnapNode.refs, node by node: input-VC runs, injection channels,
//     ejection channels, source queue, recovery queue, retry queue) so any
//     schedule reaching the same configuration of worms yields the same
//     bytes;
//   - observer-only state dropped: config digest (the explorer pins the
//     config separately), NextID and the all-time generated/delivered/
//     recovered/aborted/retried/dropped counters, stats, metrics, and the
//     unobservable Pooled flag;
//   - everything behavioural kept, deliberately over-inclusive — merging
//     two states that differ in a behavioural field would be unsound
//     (the explorer would silently skip reachable futures), while keeping
//     a redundant field only costs dedup rate. That includes the absolute
//     clock, per-VC blockage counters and last-transmission cycles,
//     arbiter pointers, generator and limiter state, and message
//     timestamps and Tails;
//   - nothing the engine derives: a snapshot holds none of it (snapshot.go),
//     so the encoding is the snapshot's fields and no more.
//
// The encoding is a flat deterministic byte stream (fixed-width
// little-endian scalars, length-prefixed slices) — no maps, no gob.
//
// The one place the engine orders by raw message ID is the fault-kill
// batch sort (fault.go), so on fault-capable configs the dense remap alone
// would merge states whose kill order differs. Fault-capable snapshots
// (liveness masks present) therefore also encode the permutation of
// canonical indices in ascending raw-ID order: states with the same worms
// but different relative creation order hash apart, making fault and repair
// actions soundly hashable — fault-schedule branching in the explorer needs
// no further care. Fault-free snapshots omit the permutation and keep the
// full cross-schedule dedup.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// CanonFormat tags the canonical encoding: the first bytes of every one, and
// what a visited set of its hashes records. Bump it on any layout change.
const CanonFormat = "wncanon3"

// canonWriter accumulates the canonical byte stream.
type canonWriter struct{ b []byte }

func (w *canonWriter) u64(v uint64) {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	w.b = append(w.b, x[:]...)
}
func (w *canonWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *canonWriter) i32(v int32) {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], uint32(v))
	w.b = append(w.b, x[:]...)
}
func (w *canonWriter) boolean(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}
func (w *canonWriter) bytes(v []byte) {
	w.i32(int32(len(v)))
	w.b = append(w.b, v...)
}
func (w *canonWriter) str(v string) {
	w.i32(int32(len(v)))
	w.b = append(w.b, v...)
}
func (w *canonWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// CanonicalBytes returns the canonical encoding of the snapshot. Snapshots
// of engines with the same ConfigDigest have equal CanonicalBytes iff they
// represent the same logical state; the config itself is NOT part of the
// encoding, so callers comparing across configs must pin the digest
// separately.
func (s *Snapshot) CanonicalBytes() ([]byte, error) {
	return new(CanonBuf).Bytes(s)
}

// CanonBuf is the storage the canonical encoding is built in, for a caller that
// hashes many snapshots to keep (the zero value is ready; one goroutine at a time).
type CanonBuf struct {
	b       []byte
	canon   map[int64]int32
	byCanon []*SnapMessage
}

// encode leaves the canonical encoding of s in c.b.
func (c *CanonBuf) encode(s *Snapshot) error {
	// Pass 1: assign dense canonical indices to message IDs in the fixed
	// traversal order.
	if c.canon == nil {
		c.canon, c.b = make(map[int64]int32, len(s.Messages)), make([]byte, 0, 1024)
	}
	canon := c.canon
	clear(canon)
	assign := func(id int64) {
		if id < 0 {
			return
		}
		if _, ok := canon[id]; !ok {
			canon[id] = int32(len(canon))
		}
	}
	for i := range s.Nodes {
		s.Nodes[i].refs(assign)
	}
	// Snapshot() only stores reachable messages, so every message has been
	// assigned; s.Messages is sorted by raw ID, making any defensive
	// leftover ordering deterministic too.
	for i := range s.Messages {
		assign(s.Messages[i].ID)
	}
	ref := func(id int64) int32 {
		if id < 0 {
			return -1
		}
		return canon[id]
	}

	// A local writer: appends go to the stack, not through c and its write barriers.
	w := &canonWriter{b: c.b[:0]}
	w.str(CanonFormat)
	w.i64(s.Now)
	w.boolean(s.SourcesStopped)
	w.i32(int32(s.FaultIdx))
	w.u64(s.Epoch)
	w.i32(int32(len(s.LinksUp)))
	for _, up := range s.LinksUp {
		w.boolean(up)
	}
	w.i32(int32(len(s.RoutersUp)))
	for _, up := range s.RoutersUp {
		w.boolean(up)
	}

	// Messages in canonical order.
	byCanon := resize(c.byCanon, len(canon))
	clear(byCanon)
	c.byCanon = byCanon
	for i := range s.Messages {
		sm := &s.Messages[i]
		ci, ok := canon[sm.ID]
		if !ok {
			return fmt.Errorf("%w: message %d in table but unreferenced", ErrSnapshotInvalid, sm.ID)
		}
		byCanon[ci] = sm
	}
	w.i32(int32(len(byCanon)))
	for ci, sm := range byCanon {
		if sm == nil {
			return fmt.Errorf("%w: reference to message missing from table (canonical index %d)", ErrSnapshotInvalid, ci)
		}
		w.i32(sm.Src)
		w.i32(sm.Dst)
		w.i32(sm.Length)
		w.i64(sm.GenTime)
		w.i64(sm.InjectTime)
		w.i64(sm.DeliverTime)
		w.b = append(w.b, byte(sm.State))
		w.i32(sm.Injector)
		w.i32(sm.FlitsSent)
		w.i32(sm.FlitsEjected)
		w.i32(sm.Recoveries)
		w.i32(sm.Retries)
		w.str(sm.DropReason)
		w.boolean(sm.Measured)
		w.i32(sm.Tail)
	}

	// Fault-capable configs: the kill batch sort orders by raw message ID,
	// so the relative creation order of the in-flight messages is
	// behavioural state. Encode it as the canonical indices in ascending
	// raw-ID order (s.Messages is already raw-ID-sorted). Fault-free
	// configs skip this, keeping the full cross-schedule dedup.
	if len(s.LinksUp) > 0 || len(s.RoutersUp) > 0 {
		w.i32(int32(len(s.Messages)))
		for i := range s.Messages {
			w.i32(canon[s.Messages[i].ID])
		}
	}

	route := func(r SnapRoute) {
		w.boolean(r.Valid)
		w.boolean(r.Eject)
		w.b = append(w.b, byte(r.OutPort), byte(r.OutVC), byte(r.EjCh))
		w.b = append(w.b, byte(r.Epoch), byte(r.Epoch>>8))
	}
	w.i32(int32(len(s.Nodes)))
	for i := range s.Nodes {
		sn := &s.Nodes[i]
		w.i32(int32(len(sn.In)))
		for c := range sn.In {
			sv := &sn.In[c]
			w.i32(sv.N)
			if sv.N != 0 {
				w.i32(ref(sv.Msg))
				w.i32(sv.Seq)
			} else if sv.Msg != 0 || sv.Seq != 0 {
				return fmt.Errorf("%w: node %d vc %d is empty but names message %d from flit %d", ErrSnapshotInvalid, i, c, sv.Msg, sv.Seq)
			}
			route(sv.Route)
		}
		w.i32(int32(len(sn.Inj)))
		for _, si := range sn.Inj {
			w.i32(ref(si.Msg))
			route(si.Route)
			w.i32(si.Left)
		}
		w.i32(int32(len(sn.Ej)))
		for _, se := range sn.Ej {
			w.i32(ref(se.Msg))
			w.i32(se.Pending)
		}
		w.i32(int32(len(sn.Queue)))
		for _, id := range sn.Queue {
			w.i32(ref(id))
		}
		w.i32(int32(len(sn.Recovery)))
		for _, sp := range sn.Recovery {
			w.i32(ref(sp.Msg))
			w.i64(sp.ReadyAt)
		}
		w.i32(int32(len(sn.Retry)))
		for _, sp := range sn.Retry {
			w.i32(ref(sp.Msg))
			w.i64(sp.ReadyAt)
		}
		w.boolean(sn.Gen.Bursty)
		w.bytes(sn.Gen.PCG)
		w.bytes(sn.Gen.PhasePCG)
		w.f64(sn.Gen.Next)
		w.boolean(sn.Gen.On)
		w.f64(sn.Gen.PhaseEnds)
		w.boolean(sn.Gen.Script)
		w.i64(sn.Gen.Pos)
		w.i32(int32(len(sn.Limiter)))
		for _, word := range sn.Limiter {
			w.u64(word)
		}
		w.i32(int32(len(sn.Blocked)))
		for _, b := range sn.Blocked {
			w.i32(b)
		}
		w.i32(int32(len(sn.LastTx)))
		for _, tx := range sn.LastTx {
			w.i64(tx)
		}
		w.i32(int32(len(sn.ArbNext)))
		for _, nx := range sn.ArbNext {
			w.i32(nx)
		}
	}
	c.b = w.b
	return nil
}

// CanonicalHash returns the SHA-256 of CanonicalBytes — the visited-set key
// of the model checker.
func (s *Snapshot) CanonicalHash() ([32]byte, error) {
	return new(CanonBuf).Hash(s)
}

// Hash is s.CanonicalHash() through c's storage.
func (c *CanonBuf) Hash(s *Snapshot) ([32]byte, error) {
	if err := c.encode(s); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(c.b), nil
}

// Bytes is s.CanonicalBytes() in c's storage: valid until c is next used.
func (c *CanonBuf) Bytes(s *Snapshot) ([]byte, error) {
	err := c.encode(s)
	return c.b, err
}
