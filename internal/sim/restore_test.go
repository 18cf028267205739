package sim

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"wormnet/internal/baseline"
	"wormnet/internal/message"
	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// restoreScenario is one configuration of the in-place restore suite, with
// the cycle the snapshot is taken at and the cycle the reused engine is driven
// to first.
type restoreScenario struct {
	cfg             Config
	snapAt, dirtyAt int64
}

// restoreScenarios cover no limiter, ALO over bursty sources, the two
// stateful limiters, a fault schedule with epoch flips on both sides of the
// snapshot (and more of them on the reused engine's side, so the liveness
// masks differ and the candidate table must be rebuilt), and the adversary
// classes over a flapping link.
func restoreScenarios() map[string]restoreScenario {
	eq := equivalenceConfigs()
	withLimiter := func(name string) Config {
		c := QuickConfig()
		c.Rate = 2.0
		return c.WithLimiter(name, baseline.Factories()[name])
	}
	return map[string]restoreScenario{
		// One cycle apart: the reused engine's push rings were last stamped
		// with exactly the cycle the restore rewinds the clock to.
		"none":        {eq["saturated-recovery"], 3000, 3001},
		"alo-bursty":  {eq["bursty-alo"], 3000, 2100},
		"lf":          {withLimiter("lf"), 3000, 3700},
		"dril":        {withLimiter("dril"), 3000, 3700},
		"faults":      {eq["faults-retry"], 4500, 5100}, // flips at 2200, 3000 | 4800, 6500
		"adversarial": {eq["adversarial"], 3000, 3700},  // flips at 2000, 2600 | 3400, 4000
	}
}

// dirtyEngine builds an engine at the given worker count and drives it down a
// trajectory of its own, with every attachable observer attached: the state
// an in-place restore has to shed completely.
func dirtyEngine(t *testing.T, cfg Config, workers int, until int64) *Engine {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 64)
	e.EnableSpans(reg, 4, nil)
	e.SetListener(&eventTap{})
	e.SetSampleHook(func(int64) {})
	e.SetReconfigHook(func(uint64) {})
	e.Collector().EnableDeliverySeries(100, 50)
	for e.Now() < until {
		if e.Now()%500 == 250 && (e.live == nil || e.live.RouterAlive(2)) {
			e.Inject(2, 9, 5)
		}
		e.Step()
	}
	e.StopSources()
	return e
}

// runOn steps e for n cycles and returns everything observable about where it
// ended: the summary, the per-class split, the all-time counters, the event
// stream and the final snapshot.
func runOn(t *testing.T, e *Engine, n int) (stats.Result, []stats.ClassResult, [6]int64, []trace.Event, *Snapshot) {
	t.Helper()
	tap := &eventTap{}
	e.SetListener(tap)
	for i := 0; i < n; i++ {
		e.Step()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after %d further cycles: %v", n, err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	counters := [6]int64{e.Generated(), e.Delivered(), e.Recovered(), e.Aborted(), e.Retried(), e.Dropped()}
	return e.Collector().Result(), e.Collector().ClassResults(), counters, tap.events, snap
}

// TestRestoreInPlaceEquivalence is the Restore contract: loading snapshot S
// into an engine that has run a different trajectory gives the engine a fresh
// RestoreEngine(cfg, S) gives — the same snapshot and canonical hash at once,
// and the same results, counters, events and state 500 cycles on — whichever
// worker count took the snapshot and whichever one restores it.
func TestRestoreInPlaceEquivalence(t *testing.T) {
	for name, sc := range restoreScenarios() {
		sc := sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, w := range []struct{ snap, restore int }{{1, 2}, {2, 1}, {2, 2}} {
				snap := snapshotAt(t, sc.cfg, w.snap, sc.snapAt, &eventTap{})
				cfg := sc.cfg
				cfg.Workers = w.restore
				fresh, err := RestoreEngine(cfg, snap)
				if err != nil {
					t.Fatalf("%d->%d: fresh restore: %v", w.snap, w.restore, err)
				}
				reused := dirtyEngine(t, sc.cfg, w.restore, sc.dirtyAt)
				if err := reused.Restore(snap); err != nil {
					t.Fatalf("%d->%d: in-place restore: %v", w.snap, w.restore, err)
				}
				if reused.listener != nil || reused.met != nil || reused.metReg != nil ||
					reused.onSample != nil || reused.spans != nil || reused.onReconfig != nil {
					t.Errorf("%d->%d: Restore left an observer attached", w.snap, w.restore)
				}
				if reused.Collector().DeliverySeries() != nil {
					t.Errorf("%d->%d: Restore kept a delivery series the snapshot does not carry", w.snap, w.restore)
				}
				if err := reused.CheckReconfiguration(); err != nil {
					t.Errorf("%d->%d: restored routing state: %v", w.snap, w.restore, err)
				}
				compareSnapshots(t, reused, fresh)

				// Same liveness masks again: the candidate table must be kept.
				table := reused.cand
				if err := reused.Restore(snap); err != nil {
					t.Fatalf("%d->%d: second in-place restore: %v", w.snap, w.restore, err)
				}
				if reused.cand != table {
					t.Errorf("%d->%d: candidate table rebuilt under unchanged liveness masks", w.snap, w.restore)
				}

				fRes, fCls, fCnt, fEv, fSnap := runOn(t, fresh, 500)
				rRes, rCls, rCnt, rEv, rSnap := runOn(t, reused, 500)
				if rRes != fRes || !reflect.DeepEqual(rCls, fCls) || rCnt != fCnt {
					t.Errorf("%d->%d: 500 cycles on, results diverged:\n reused %+v %+v %v\n fresh  %+v %+v %v",
						w.snap, w.restore, rRes, rCls, rCnt, fRes, fCls, fCnt)
				}
				if !reflect.DeepEqual(rEv, fEv) {
					t.Errorf("%d->%d: event streams diverged (%d vs %d events)", w.snap, w.restore, len(rEv), len(fEv))
				}
				if !reflect.DeepEqual(rSnap, fSnap) {
					t.Errorf("%d->%d: final snapshots differ", w.snap, w.restore)
				}
				if !sc.cfg.Faults.Empty() && (snap.Epoch == 0 || fresh.Epoch() == snap.Epoch) {
					t.Errorf("%d->%d: epoch %d at the snapshot, %d after the continuation; want a flip on either side",
						w.snap, w.restore, snap.Epoch, fresh.Epoch())
				}
				fresh.Close()
				reused.Close()
			}
		})
	}
}

// compareSnapshots requires two engines, the first just restored, to snapshot
// deep-equal and hash equal, and to agree on the derived words too.
func compareSnapshots(t *testing.T, got, want *Engine) {
	t.Helper()
	gs, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("snapshots differ after restore")
	}
	gh, err := gs.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	wh, err := ws.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if gh != wh {
		t.Errorf("canonical hashes differ after restore: %x vs %x", gh[:8], wh[:8])
	}
	// What no snapshot carries is rebuilt, not kept: the switch phase's standing
	// requests from the routes, the cached candidate-set ids forgotten.
	for i := range got.nodes {
		g, w := &got.nodes[i], &want.nodes[i]
		gw, ww := got.wantOf(g.id), want.wantOf(w.id)
		if !bytes.Equal(gw, ww) || g.wantOut != w.wantOut {
			t.Errorf("node %d: want %v %#x after restore, a new engine derives %v %#x", i, gw, g.wantOut, ww, w.wantOut)
		}
		for c, ivc := range got.inOf(g.id) {
			if ivc.buf.Note != 0 {
				t.Errorf("node %d vc %d: candidate-set id %d survived a restore", i, c, ivc.buf.Note)
			}
		}
	}
}

// TestRestoreReattach pins what Restore does to an instrumented engine: it
// detaches metrics and spans like everything else, and re-attaching them the
// way RestoreEngine's callers do (EnableMetrics, Registry.Restore, then run)
// ends with the deterministic series of the uninterrupted run.
func TestRestoreReattach(t *testing.T) {
	cfg := equivalenceConfigs()["bursty-alo"]
	const snapAt = 2048

	golden := metrics.NewRegistry()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.EnableMetrics(golden, 64)
	var snap *Snapshot
	for g.Now() < cfg.TotalCycles() {
		if g.Now() == snapAt {
			if snap, err = g.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		g.Step()
	}
	g.FlushMetrics()

	e := dirtyEngine(t, cfg, 1, 3300)
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 64)
	if err := reg.Restore(snap.Metrics); err != nil {
		t.Fatal(err)
	}
	e.Run()
	compareSamples(t, reg, golden)
}

// TestRestoreDeliverySeriesFollowsSnapshot pins the one piece of collector
// state a snapshot may or may not carry: a reused engine ends up with the
// snapshot's delivery series, not the one it was recording (the equivalence
// suite covers the snapshot carrying none).
func TestRestoreDeliverySeriesFollowsSnapshot(t *testing.T) {
	cfg := equivalenceConfigs()["bursty-alo"]
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Collector().EnableDeliverySeries(250, 22)
	for a.Now() < 900 {
		a.Step()
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e := dirtyEngine(t, cfg, 1, 1300) // records a 100x50 series of its own
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := e.Collector().DeliverySeries()
	if got == nil || !reflect.DeepEqual(got.State(), a.Collector().DeliverySeries().State()) {
		t.Fatalf("restored delivery series %+v, want the snapshot's", got)
	}
	compareSnapshots(t, e, a)
}

// TestRestoreConfigMismatchLeavesEngine pins the other failure mode: a
// snapshot of another configuration is refused before anything is touched.
func TestRestoreConfigMismatchLeavesEngine(t *testing.T) {
	cfg := equivalenceConfigs()["bursty-alo"]
	e := dirtyEngine(t, cfg, 1, 700)
	before, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	foreign := snapshotAt(t, other, 1, 300, &eventTap{})
	if err := e.Restore(foreign); !errors.Is(err, ErrSnapshotConfig) {
		t.Fatalf("got %v, want ErrSnapshotConfig", err)
	}
	after, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) || e.met == nil || e.listener == nil {
		t.Errorf("a refused restore changed the engine")
	}
}

// hostileMutations are the semantic corruptions FuzzRestoreInPlace applies: a
// snapshot that still decodes and has every slice the right shape, but lies.
// Each returns false when the snapshot offers nothing to corrupt that way.
var hostileMutations = []func(s *Snapshot, a, b int) bool{
	func(s *Snapshot, a, b int) bool { // unknown message reference in a buffer
		vc := &s.Nodes[a%len(s.Nodes)].In[b%len(s.Nodes[0].In)]
		vc.Msg, vc.N = 1<<40, max(vc.N, 1)
		return true
	},
	func(s *Snapshot, a, b int) bool { // unknown message reference elsewhere
		n := &s.Nodes[a%len(s.Nodes)]
		switch b % 5 {
		case 0:
			n.Queue = append(n.Queue, -7)
		case 1:
			n.Recovery = append(n.Recovery, SnapPending{Msg: 1 << 41})
		case 2:
			n.Inj[0].Msg = 1 << 42
		case 3:
			n.Ej[0].Msg = 1 << 43
		case 4:
			n.Retry = append(n.Retry, SnapPending{Msg: 1 << 44})
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // bad arbiter pointer
		n := &s.Nodes[a%len(s.Nodes)]
		n.ArbNext[b%len(n.ArbNext)] = int32(1000 + b)
		if b%2 == 0 {
			n.ArbNext[b%len(n.ArbNext)] = -1
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // wrong liveness sizes, or a fault position before the schedule
		switch b % 4 {
		case 0:
			s.LinksUp = append(s.LinksUp, true)
		case 1:
			s.RoutersUp = append(s.RoutersUp, false)
		case 2: // a fault-capable engine's masks missing, or masks where none belong
			if s.LinksUp != nil {
				s.LinksUp, s.RoutersUp = nil, nil
			} else {
				s.RoutersUp = make([]bool, len(s.Nodes))
			}
		case 3:
			s.FaultIdx = -1 - a
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // route naming channels the router lacks
		n := &s.Nodes[a%len(s.Nodes)]
		bad := []SnapRoute{{Valid: true, OutPort: 99}, {Valid: true, OutPort: -1}, {Valid: true, OutVC: 50},
			{Valid: true, Eject: true, EjCh: 9}, {Valid: true, Eject: true, EjCh: -1}}
		n.In[b%len(n.In)].Route = bad[b%len(bad)]
		return true
	},
	func(s *Snapshot, a, b int) bool { // a routed channel stamped with a foreign epoch
		for i := range s.Nodes {
			n := &s.Nodes[(a+i)%len(s.Nodes)]
			for c := range n.In {
				if n.In[c].Route.Valid {
					n.In[c].Route.Epoch ^= 0x5555
					return true
				}
			}
		}
		return false
	},
	func(s *Snapshot, a, b int) bool { // collector state of another shape
		switch b % 4 {
		case 0:
			s.Stats.Hist.Buckets = s.Stats.Hist.Buckets[:len(s.Stats.Hist.Buckets)/2]
		case 1:
			s.Stats.Fairness.Counts = append(s.Stats.Fairness.Counts, 1)
		case 2:
			s.Stats.DeliveredSeries = &stats.TimeSeriesState{Interval: int64(a%3) - 1}
		case 3:
			if s.Stats.Classes != nil {
				s.Stats.Classes = nil
			} else {
				s.Stats.Classes = &stats.ClassesState{Names: []string{"x"}, ClassOf: make([]uint8, a%40)}
			}
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // two agents routed to one output channel: want holds one
		for i := range s.Nodes {
			n := &s.Nodes[(a+i)%len(s.Nodes)]
			for c := range n.In {
				if !n.In[c].Route.Valid {
					continue
				}
				if b%3 == 0 && n.Inj[0].Msg >= 0 {
					n.Inj[0].Route = n.In[c].Route
				} else {
					n.In[(c+1+b%(len(n.In)-1))%len(n.In)].Route = n.In[c].Route
				}
				return true
			}
		}
		return false
	},
	func(s *Snapshot, a, b int) bool { // a busy injection channel with nothing, or too much, left to stream
		si := busyInj(s, a)
		if si == nil {
			return false
		}
		si.Left = []int32{0, -1, msgOf(s, si.Msg).Length + 1}[b%3]
		return true
	},
	func(s *Snapshot, a, b int) bool { // per-node words of the wrong kind
		n := &s.Nodes[a%len(s.Nodes)]
		switch b % 3 {
		case 0:
			n.Gen.PCG = n.Gen.PCG[:len(n.Gen.PCG)/2]
		case 1:
			n.Gen.Script = true
		case 2:
			if n.Limiter == nil {
				n.Limiter = []uint64{1, 2, 3}
			} else {
				n.Limiter = n.Limiter[:1]
			}
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // fault machinery position in a fault-free engine's snapshot, or past the schedule
		switch {
		case s.LinksUp != nil:
			s.FaultIdx = 1<<20 + a%7 // beyond any schedule's events
		case b%2 == 0:
			s.FaultIdx = 1 + a%7
		default:
			s.Epoch = 1 + uint64(a)
		}
		return true
	},
	waitingNamedTwice,
}

// underivableMutations rewrite a queued message into one a bare queue record
// cannot stand for, since a record derives its length from the config, its
// measured flag from its generation cycle and its history from being bare. The
// state they make is legal, so a restore must keep it exactly (or refuse it).
// Each returns false when no source queue holds a message.
var underivableMutations = []func(s *Snapshot, a, b int) bool{
	func(s *Snapshot, a, b int) bool { // measured flag against the window
		m := aQueuedMessage(s, a, b)
		if m != nil {
			m.Measured = !m.Measured
		}
		return m != nil
	},
	func(s *Snapshot, a, b int) bool { // another length
		m := aQueuedMessage(s, a, b)
		if m != nil {
			m.Length = int32(1 + (int(m.Length)+b%(router.MaxMessageLen-1))%router.MaxMessageLen)
		}
		return m != nil
	},
	func(s *Snapshot, a, b int) bool { // an object already: a retry
		m := aQueuedMessage(s, a, b)
		if m != nil {
			m.Retries++
		}
		return m != nil
	},
}

// tailMutations make a message's Tail disagree with the buffers and routes
// load walks its path over, or with another message's: a Tail naming no input
// VC, a held message's Tail cleared or a waiting one given one, a Tail moved
// to another VC, and two messages with one Tail. Each returns false when no
// message of the snapshot holds a buffer.
var tailMutations = []func(s *Snapshot, a, b int) bool{
	func(s *Snapshot, a, b int) bool { // naming no input VC of the network
		m := aTail(s, a, nil)
		if m != nil {
			m.Tail = []int32{-1, -1 << 20, int32(len(s.Nodes)*len(s.Nodes[0].In)) + 1, 1 << 30}[b%4]
		}
		return m != nil
	},
	func(s *Snapshot, a, b int) bool { // cleared, or given to a message without one
		m := aTail(s, a, nil)
		if m == nil {
			return false
		}
		for i := range s.Messages {
			if o := &s.Messages[(b+i)%len(s.Messages)]; b%2 == 1 && o.Tail == 0 {
				o.Tail = m.Tail
				return true
			}
		}
		m.Tail = 0
		return true
	},
	func(s *Snapshot, a, b int) bool { // moved to another input VC
		m := aTail(s, a, nil)
		if m != nil {
			vcs := int32(len(s.Nodes) * len(s.Nodes[0].In))
			m.Tail = 1 + (m.Tail-1+1+int32(b)%(vcs-1))%vcs
		}
		return m != nil
	},
	func(s *Snapshot, a, b int) bool { // two messages with one Tail
		m := aTail(s, a, nil)
		o := aTail(s, a+1+b, m)
		if o != nil {
			o.Tail = m.Tail
		}
		return o != nil
	},
}

// runMutations make a buffer's run disagree with its buffer, its message or
// the message's other references: a run longer than the buffer, a run outside
// its message's flits, an empty buffer naming a run, a run in a buffer the
// message does not hold, a run of another message, and a flit lost or gained.
// Each returns false when the snapshot has no buffer to corrupt that way.
var runMutations = []func(s *Snapshot, a, b int) bool{
	func(s *Snapshot, a, b int) bool { // longer than any buffer
		vc := occupiedVC(s, a, 1)
		if vc != nil {
			vc.N += 1<<16 - int32(b%8)
		}
		return vc != nil
	},
	func(s *Snapshot, a, b int) bool { // outside its message: below flit 0, or past its tail
		vc := occupiedVC(s, a, 1)
		switch {
		case vc == nil:
			return false
		case b%2 == 0:
			vc.Seq = -1 - int32(b%5)
		default:
			vc.Seq = msgOf(s, vc.Msg).Length - vc.N + 1 + int32(b%5)
		}
		return true
	},
	func(s *Snapshot, a, b int) bool { // an empty buffer naming a message or a first flit
		for i := range s.Nodes {
			n := &s.Nodes[(a+i)%len(s.Nodes)]
			for c := range n.In {
				if vc := &n.In[c]; vc.N == 0 {
					if b%2 == 0 {
						vc.Msg = s.Messages[b%len(s.Messages)].ID | 1
					} else {
						vc.Seq = 1 + int32(b%5)
					}
					return true
				}
			}
		}
		return false
	},
	func(s *Snapshot, a, b int) bool { // a phantom run of a real message in an empty buffer
		if len(s.Messages) == 0 {
			return false
		}
		for i := range s.Nodes {
			n := &s.Nodes[(a+i)%len(s.Nodes)]
			for c := range n.In {
				if vc := &n.In[c]; vc.N == 0 {
					vc.Msg, vc.N = s.Messages[b%len(s.Messages)].ID, 1
					return true
				}
			}
		}
		return false
	},
	func(s *Snapshot, a, b int) bool { // another message's run
		vc := occupiedVC(s, a, 1)
		if vc == nil {
			return false
		}
		for i := range s.Messages {
			if o := &s.Messages[(b+i)%len(s.Messages)]; o.ID != vc.Msg && vc.Seq+vc.N <= o.Length {
				vc.Msg = o.ID
				return true
			}
		}
		return false
	},
	func(s *Snapshot, a, b int) bool { // a flit lost or gained
		vc := occupiedVC(s, a, 1)
		if vc != nil {
			vc.N += int32(b%2*2 - 1)
		}
		return vc != nil
	},
}

// aTail returns a message of s with a Tail other than not, scanning the
// message table from a; nil when there is none.
func aTail(s *Snapshot, a int, not *SnapMessage) *SnapMessage {
	for i := range s.Messages {
		if m := &s.Messages[(a+i)%len(s.Messages)]; m.Tail != 0 && m != not {
			return m
		}
	}
	return nil
}

// msgOf returns the message of s with id.
func msgOf(s *Snapshot, id int64) *SnapMessage {
	return &s.Messages[sort.Search(len(s.Messages), func(j int) bool { return s.Messages[j].ID >= id })]
}

// aQueuedMessage returns the message some source queue of s names, picked by a
// (the node) and b (the place in its queue), or nil when every queue is empty.
func aQueuedMessage(s *Snapshot, a, b int) *SnapMessage {
	for i := range s.Nodes {
		if q := s.Nodes[(a+i)%len(s.Nodes)].Queue; len(q) > 0 {
			return msgOf(s, q[b%len(q)])
		}
	}
	return nil
}

// waitingNamedTwice names a waiting message a second time, the hostile family
// of load's one-reference rule: a queued message from its own queue again, or
// from a recovery or retry list, or a recovering or retrying one (the queued
// one when the snapshot has neither) from a queue.
func waitingNamedTwice(s *Snapshot, a, b int) bool {
	for i := range s.Nodes {
		n := &s.Nodes[(a+i)%len(s.Nodes)]
		if len(n.Queue) == 0 {
			continue
		}
		id := n.Queue[b%len(n.Queue)]
		switch b % 4 {
		case 0:
			n.Queue = append(n.Queue, id)
		case 1:
			n.Recovery = append(n.Recovery, SnapPending{Msg: id, ReadyAt: s.Now})
		case 2:
			n.Retry = append(n.Retry, SnapPending{Msg: id, ReadyAt: s.Now})
		case 3:
			for _, o := range s.Nodes {
				if len(o.Recovery) > 0 {
					id = o.Recovery[0].Msg
				} else if len(o.Retry) > 0 {
					id = o.Retry[0].Msg
				}
			}
			n.Queue = append(n.Queue, id)
		}
		return true
	}
	return false
}

// TestRestoreRefusesWaitingMessageNamedTwice: a waiting message holds no
// network state, so one queue, recovery or retry entry is all that may name it.
// A second would restore as two records with one id, or a record and an object.
func TestRestoreRefusesWaitingMessageNamedTwice(t *testing.T) {
	for name, sc := range restoreScenarios() {
		sc := sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			snap := snapshotAt(t, sc.cfg, 1, sc.snapAt, &eventTap{})
			for b := 0; b < 4; b++ {
				bad := gobRoundTrip(t, snap)
				if !waitingNamedTwice(bad, 0, b) {
					t.Fatal("no message waits in a source queue")
				}
				if _, err := RestoreEngine(sc.cfg, bad); !errors.Is(err, ErrSnapshotInvalid) || !strings.Contains(err.Error(), "references, want 1") {
					t.Errorf("case %d: got %v, want ErrSnapshotInvalid naming the references", b, err)
				}
			}
		})
	}
}

// busyInj returns the first busy injection channel, scanning from node a; nil
// if the snapshot has none.
func busyInj(s *Snapshot, a int) *SnapInj {
	for i := range s.Nodes {
		n := &s.Nodes[(a+i)%len(s.Nodes)]
		for c := range n.Inj {
			if n.Inj[c].Msg >= 0 {
				return &n.Inj[c]
			}
		}
	}
	return nil
}

// occupiedVC returns the first virtual channel, scanning from node a, whose
// buffer holds at least n flits; nil if the snapshot has none.
func occupiedVC(s *Snapshot, a, n int) *SnapVC {
	for i := range s.Nodes {
		nd := &s.Nodes[(a+i)%len(s.Nodes)]
		for c := range nd.In {
			if nd.In[c].N >= int32(n) {
				return &nd.In[c]
			}
		}
	}
	return nil
}

// FuzzRestoreInPlace feeds semantically inconsistent snapshots to a reused
// engine — one of three, or (which >= backloggedFrom) one restored from a
// backlog and run on until derived suffixes queued behind it. Every one must come back as ErrSnapshotInvalid — never a panic,
// never a quietly wrong engine — and must leave nothing behind. A snapshot
// with a queued message no bare record can stand for (underivableMutations)
// must restore and snapshot again to its own canonical bytes, or be refused
// the same way; one whose Tails or runs disagree with the rest of the state
// (tailMutations, runMutations) must be refused. Either way the good snapshot restored next has to reproduce
// its hash and deep-equal a fresh restore, run after run on the same engine. Each accepted restore is then
// snapshotted into the storage of the iteration before — the hostile snapshot,
// overlong lists, lying Tails and all — and must hash like the good one again.
func FuzzRestoreInPlace(f *testing.F) {
	const backloggedFrom = 128
	type target struct {
		cfg  Config
		good *Snapshot
		hash [32]byte
		e    *Engine
		prev *Snapshot // the previous iteration's hostile snapshot: dirty storage
	}
	var targets []*target
	for _, name := range []string{"faults", "adversarial", "dril"} {
		sc := restoreScenarios()[name]
		t := &target{cfg: sc.cfg, prev: new(Snapshot)}
		e, err := New(sc.cfg)
		if err != nil {
			f.Fatal(err)
		}
		for e.Now() < sc.snapAt {
			e.Step()
		}
		if t.good, err = e.Snapshot(); err != nil {
			f.Fatal(err)
		}
		if t.hash, err = t.good.CanonicalHash(); err != nil {
			f.Fatal(err)
		}
		for e.Now() < sc.dirtyAt {
			e.Step()
		}
		t.e = e
		targets = append(targets, t)
	}
	// A restored backlog that the sources' derived suffixes have queued
	// behind: records ahead of derived messages at most nodes, in the engine
	// the snapshot comes from and in the one the fuzz restores into.
	backlogged := &target{cfg: saturatedConfigs()["uniform"], prev: new(Snapshot)}
	e, err := New(backlogged.cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, at := range []int64{1500, 1700, 2000} {
		for e.Now() < at {
			e.Step()
		}
		snap, err := e.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		switch at {
		case 1500:
			err = e.Restore(snap)
		case 1700:
			backlogged.good = snap
			backlogged.hash, err = snap.CanonicalHash()
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	backlogged.e = e
	mutations := append(slices.Clip(hostileMutations), underivableMutations...)
	for m := range mutations {
		for v := 0; v < 6; v++ {
			f.Add(uint8(v), uint8(m), uint16(7*v+m), uint16(v))
		}
	}
	for m := range mutations {
		for v := 0; v < 2; v++ {
			f.Add(uint8(backloggedFrom+v), uint8(m), uint16(7*v+m), uint16(v))
		}
	}
	// The Tail and run mutations go last, list and seeds, so that the seeds
	// above keep their targets; each has sixteen, four on the backlog.
	derivable := len(mutations)
	mutations = append(append(mutations, tailMutations...), runMutations...)
	for m := derivable; m < len(mutations); m++ {
		for v := 0; v < 16; v++ {
			which := v
			if v >= 12 {
				which = backloggedFrom + v - 12
			}
			f.Add(uint8(which), uint8(m), uint16(7*v+m), uint16(v))
		}
	}
	f.Fuzz(func(t *testing.T, which, mutation uint8, a, b uint16) {
		tg := targets[int(which)%len(targets)]
		if which >= backloggedFrom {
			tg = backlogged
		}
		bad := gobRoundTrip(t, tg.good)
		k := int(mutation) % len(mutations)
		if !mutations[k](bad, int(a), int(b)) {
			t.Skip("nothing to corrupt this way")
		}
		err := tg.e.Restore(bad)
		switch {
		case err == nil && k >= len(hostileMutations) && k < derivable:
			assertSnapshotsTo(t, tg.e, bad)
		case !errors.Is(err, ErrSnapshotInvalid):
			t.Fatalf("hostile snapshot: got %v, want ErrSnapshotInvalid", err)
		case tg.e.Now() != 0 || tg.e.InFlight() != 0:
			t.Fatalf("failed restore left cycle %d, %d in flight; want a reset engine", tg.e.Now(), tg.e.InFlight())
		}
		if err := tg.e.Restore(tg.good); err != nil {
			t.Fatalf("good snapshot after a hostile one: %v", err)
		}
		snap, err := tg.e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if h, err := snap.CanonicalHash(); err != nil || h != tg.hash {
			t.Fatalf("good snapshot hashes %x after a hostile one, want %x (err %v)", h[:8], tg.hash[:8], err)
		}
		if !reflect.DeepEqual(snap, tg.good) {
			t.Fatalf("state leaked from the hostile snapshot into the next restore")
		}
		if err := tg.e.SnapshotInto(tg.prev); err != nil {
			t.Fatal(err)
		}
		if h, err := tg.prev.CanonicalHash(); err != nil || h != tg.hash {
			t.Fatalf("snapshot into the previous iteration's storage hashes %x, want %x (err %v)", h[:8], tg.hash[:8], err)
		}
		if into, want := gobRoundTrip(t, tg.prev), gobRoundTrip(t, tg.good); !reflect.DeepEqual(into, want) {
			t.Fatalf("snapshot into the previous iteration's storage decodes to another state")
		}
		tg.prev = bad
	})
}

// observerOnly are the snapshot fields CanonicalBytes leaves out on purpose,
// each a field path with its subtree: what observes a run rather than steers it,
// the raw message ids (the encoding numbers messages in reference order), and
// Gen.Rogue, which the config fixes like Config itself — which nodes are rogue
// is part of it, and every generator refuses the other kind's state.
var observerOnly = []string{
	"Config", "NextID", "Generated", "Delivered", "Recovered", "Aborted", "Retried", "Dropped",
	"Stats", "Metrics", "Messages.Pooled", "Messages.ID", "Nodes.In.Msg",
	"Nodes.Inj.Msg", "Nodes.Ej.Msg", "Nodes.Queue", "Nodes.Recovery.Msg", "Nodes.Retry.Msg", "Nodes.Gen.Rogue",
}

// snapLeaves calls fn with the field path ("Nodes.In.Seq", no indices)
// and the value of every leaf reachable from v — a scalar, a string or a
// []byte — depth first in field and element order, until fn returns false.
func snapLeaves(v reflect.Value, path string, fn func(string, reflect.Value) bool) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p := v.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			if !snapLeaves(v.Field(i), p, fn) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		return v.IsNil() || snapLeaves(v.Elem(), path, fn)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				if !snapLeaves(v.Index(i), path, fn) {
					return false
				}
			}
			return true
		}
		if v.Len() == 0 {
			return true
		}
	}
	return fn(path, v)
}

// perturbLeaf changes a leaf snapLeaves found: a bool flips, a number grows by
// one (an infinity becomes 0), a string grows a byte, a []byte's last bit flips.
func perturbLeaf(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		if f := v.Float(); math.IsInf(f, 0) {
			v.SetFloat(0)
		} else {
			v.SetFloat(f + 1)
		}
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		b := v.Index(v.Len() - 1)
		b.SetUint(b.Uint() ^ 1)
	default:
		t.Fatalf("%s: no perturbation for a %s", path, v.Kind())
	}
}

// TestSnapshotEveryFieldWalked is what a table of durable state would
// guarantee, checked field by field instead: every leaf field reachable from a
// Snapshot is perturbed, one at a time, at its first occurrence in a
// snapshot of a saturated fault-mode run, a saturated one without a limiter,
// ALO over bursty sources, DRIL and the adversary classes, each recording a
// delivery series, and each perturbation must change
// CanonicalBytes (or make it fail) unless the field is observer-only, and be
// either refused by Restore or given back exactly by SnapshotInto — a value
// load keeps is a value the snapshot walk writes, and a value it would drop is
// refused. Between them the scenarios reach every field of every type below
// Snapshot but Metrics (no scenario records them; they are observer-only).
func TestSnapshotEveryFieldWalked(t *testing.T) {
	visited := map[string]bool{}
	for _, name := range []string{"faults", "none", "alo-bursty", "dril", "adversarial"} {
		sc := restoreScenarios()[name]
		e, err := New(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Collector().EnableDeliverySeries(100, 50)
		for e.Now() < sc.snapAt {
			e.Step()
		}
		good, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		good = gobRoundTrip(t, good)
		goodCanon, err := good.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		snapLeaves(reflect.ValueOf(good).Elem(), "", func(p string, _ reflect.Value) bool {
			if !slices.Contains(paths, p) {
				paths = append(paths, p)
			}
			visited[p] = true
			return true
		})
		for _, p := range paths {
			bad := gobRoundTrip(t, good)
			snapLeaves(reflect.ValueOf(bad).Elem(), "", func(q string, v reflect.Value) bool {
				if q == p {
					perturbLeaf(t, q, v)
				}
				return q != p
			})
			observer := slices.ContainsFunc(observerOnly, func(o string) bool { return p == o || strings.HasPrefix(p, o+".") })
			if canon, err := bad.CanonicalBytes(); err == nil && bytes.Equal(canon, goodCanon) && !observer {
				t.Errorf("%s: %s perturbed, CanonicalBytes unchanged", name, p)
			}
			if e.Restore(bad) != nil {
				continue
			}
			got, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gobRoundTrip(t, got), gobRoundTrip(t, bad)) {
				t.Errorf("%s: %s perturbed, Restore accepts it and SnapshotInto gives back another snapshot", name, p)
			}
		}
		e.Close()
	}
	var missed []string
	var fields func(tp reflect.Type, path string)
	fields = func(tp reflect.Type, path string) {
		switch tp.Kind() {
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				p := tp.Field(i).Name
				if path != "" {
					p = path + "." + p
				}
				fields(tp.Field(i).Type, p)
			}
			return
		case reflect.Pointer, reflect.Slice:
			if tp.Elem().Kind() != reflect.Uint8 {
				fields(tp.Elem(), path)
				return
			}
		}
		if !visited[path] && path != "Metrics" && !strings.HasPrefix(path, "Metrics.") {
			missed = append(missed, path)
		}
	}
	fields(reflect.TypeOf(Snapshot{}), "")
	if len(missed) > 0 {
		t.Errorf("no scenario reaches %v", missed)
	}
}

// modelEngine is the model checker's engine — the 2-ary 2-cube with two
// opposing 6-flit worms under way — plus a snapshot of it.
func modelEngine(t *testing.T) (*Engine, *Snapshot) {
	t.Helper()
	return modelEngineOf(t, modelConfig())
}

// modelConfig is the model engine's configuration.
func modelConfig() Config {
	cfg := tinyManualConfig()
	cfg.MsgLen = 6
	return cfg
}

// modelEngineOf is modelEngine's run under cfg.
func modelEngineOf(t *testing.T, cfg Config) (*Engine, *Snapshot) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Inject(0, 3, 6)
	e.Inject(3, 0, 6)
	for i := 0; i < 6; i++ {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return e, snap
}

// TestRestoreAllocCeiling pins the per-state cost the explorer pays — one
// in-place Restore, one snapshot and one canonical hash of the model engine —
// in both forms: stored (SnapshotInto kept storage, hashed through a kept
// CanonBuf: nothing, as the restored streams are the ones the kept storage
// encodes) and allocated (Snapshot and CanonicalHash anew: measured 45, with
// a little headroom). Building an engine per restore, or a digest per
// snapshot, costs several times as much.
func TestRestoreAllocCeiling(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	e, snap := modelEngine(t)
	var dst Snapshot
	var canon CanonBuf
	stored := testing.AllocsPerRun(200, func() {
		if err := e.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if err := e.SnapshotInto(&dst); err != nil {
			t.Fatal(err)
		}
		if _, err := canon.Hash(&dst); err != nil {
			t.Fatal(err)
		}
	})
	if stored != 0 {
		t.Errorf("Restore+SnapshotInto+CanonBuf.Hash: %.0f allocations, want 0", stored)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Restore(snap); err != nil {
			t.Fatal(err)
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CanonicalHash(); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 50
	if allocs > ceiling {
		t.Errorf("Restore+Snapshot+CanonicalHash: %.0f allocations, ceiling %d", allocs, ceiling)
	}
}

// TestConfigDigestComputedOnce pins that an engine builds its config digest
// once: every snapshot carries the very same string (same backing bytes, so
// it was not built again), it equals the exported ConfigDigest, and
// asking again allocates nothing.
func TestConfigDigestComputedOnce(t *testing.T) {
	e, first := modelEngine(t)
	second, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ConfigDigest(e.Config())
	if err != nil {
		t.Fatal(err)
	}
	if first.Config != want || second.Config != want {
		t.Fatalf("snapshot digests %q / %q, ConfigDigest says %q", first.Config, second.Config, want)
	}
	if unsafe.StringData(first.Config) != unsafe.StringData(second.Config) {
		t.Errorf("second snapshot rebuilt the config digest")
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.configDigest() }); n != 0 {
		t.Errorf("configDigest allocates %.0f times per call once computed", n)
	}
}

// manifestDigest is how ConfigDigest was built before it wrote its entries
// directly: Manifest's map without workers, its keys sorted, each value as
// %v prints it, then a faulted config's retry policy and events. It is the
// reference the direct build must match byte for byte, for every Manifest key.
func manifestDigest(cfg Config) string {
	m := cfg.Manifest()
	delete(m, "workers")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v ", k, m[k])
	}
	if !cfg.Faults.Empty() {
		fmt.Fprintf(&b, "retry=%d/%d/%d ", cfg.Retry.MaxRetries, cfg.Retry.BackoffBase, cfg.Retry.BackoffCap)
		b.WriteString("faults=[")
		for _, ev := range cfg.Faults.Events() {
			fmt.Fprintf(&b, "%d:%d:%d:%d ", ev.Cycle, ev.Kind, ev.Node, ev.Port)
		}
		b.WriteString("]")
	}
	return strings.TrimSpace(b.String())
}

// TestEngineDigestMatchesConfigDigest pins the engine's own digest, built from
// its validated config without validating it again, to ConfigDigest and to the
// Manifest-built reference, for configs with and without faults, bursty,
// adversarial and scripted sources; and that a fault-free one is built in at
// most two objects (the Manifest map cost 36), on the plain build.
func TestEngineDigestMatchesConfigDigest(t *testing.T) {
	cfgs := equivalenceConfigs()
	cfgs["quick"] = QuickConfig()
	cfgs["model"] = modelConfig()
	scripted := QuickConfig()
	scripted.Sources, scripted.SourceName = traffic.ReplayFactory(nil), "silent"
	cfgs["scripted"] = scripted
	for name, cfg := range cfgs {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ConfigDigest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.configDigest(); got != want {
			t.Errorf("%s: engine digest\n %q\nConfigDigest\n %q", name, got, want)
		}
		if ref := manifestDigest(e.Config()); want != ref {
			t.Errorf("%s: ConfigDigest\n %q\nManifest reference\n %q", name, want, ref)
		}
		if cfg.Faults.Empty() && !cfg.Adversary.Enabled() && !raceEnabled() {
			if n := testing.AllocsPerRun(20, func() { _ = e.cfg.digest() }); n > 2 {
				t.Errorf("%s: building the digest allocates %.0f objects, ceiling 2", name, n)
			}
		}
		e.Close()
	}
}

// assertSnapshotsTo fails t unless e snapshots to want's canonical bytes.
func assertSnapshotsTo(t *testing.T, e *Engine, want *Snapshot) {
	t.Helper()
	got, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("restored engine snapshots to %d canonical bytes unlike the %d it was restored from", len(gb), len(wb))
	}
}

// TestRestoreKeepsUnderivableQueuedFields restores snapshots whose queued
// message is no bare record's — its measured flag disagrees with the window,
// its length with the config, or it has a history — into a fresh engine. Each
// must restore, snapshot again to the same canonical bytes, and become the
// same message when its queue hands it out; only the length is filed beside a
// bare record, the other two wait as objects. A scripted source generating
// several lengths must survive a snapshot in the middle of its run as well.
func TestRestoreKeepsUnderivableQueuedFields(t *testing.T) {
	sc := restoreScenarios()["dril"]
	e, err := New(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e.Now() < sc.snapAt {
		e.Step()
	}
	good, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, mutate := range underivableMutations {
		for _, a := range []int{0, 7, 11} {
			bad := gobRoundTrip(t, good)
			if !mutate(bad, a, 0) {
				t.Fatal("no queued message to rewrite")
			}
			sm := *aQueuedMessage(bad, a, 0)
			e, err := New(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(bad); err != nil {
				t.Fatalf("mutation %d at node %d: %v", k, sm.Src, err)
			}
			assertSnapshotsTo(t, e, bad)
			src := topology.NodeID(sm.Src)
			nd := &e.nodes[src]
			if id := e.front(nd).id; int64(id) != sm.ID {
				t.Fatalf("mutation %d: node %d's queue starts with %d, want %d", k, sm.Src, id, sm.ID)
			}
			lengthOnly := k == 1 // the length is filed beside a bare record
			if bare := e.object(message.ID(sm.ID)) == nil; bare != lengthOnly || (len(e.lengths) == 1) != lengthOnly {
				t.Errorf("mutation %d: bare=%v with %d lengths filed", k, bare, len(e.lengths))
			}
			m := e.materialise(src, e.pop(nd))
			if int64(m.ID) != sm.ID || int32(m.Dst) != sm.Dst || m.GenTime != sm.GenTime ||
				int32(m.Length) != sm.Length || m.Measured != sm.Measured || int32(m.Retries) != sm.Retries {
				t.Errorf("mutation %d: the queue hands out %+v for %+v", k, *m, sm)
			}
			if len(e.built)+len(e.lengths) != 0 {
				t.Errorf("mutation %d: %d objects and %d lengths left filed", k, len(e.built), len(e.lengths))
			}
		}
	}

	t.Run("scripted", func(t *testing.T) {
		cfg := tinyManualConfig()
		cfg.SourceName = "test-lengths"
		cfg.Sources = func(node topology.NodeID) traffic.Generator {
			var evs []traffic.Event
			for i := 0; i < 12; i++ {
				evs = append(evs, traffic.Event{Cycle: int64(i), Dst: (node + 1 + topology.NodeID(i)%3) % 4, Length: 1 + i%6})
			}
			s, err := traffic.NewScriptSource(node, evs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		whole, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stepN(t, whole, 20)
		if len(whole.lengths) == 0 {
			t.Fatal("no length filed for a waiting message of another length")
		}
		mid, err := whole.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(gobRoundTrip(t, mid)); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(resumed.lengths, whole.lengths) {
			t.Fatalf("restored lengths %v, want %v", resumed.lengths, whole.lengths)
		}
		res, _, counts, events, end := runOn(t, whole, 600)
		if whole.InFlight() != 0 || len(whole.lengths) != 0 {
			t.Fatalf("%d messages in flight and %d lengths filed after the drain", whole.InFlight(), len(whole.lengths))
		}
		res2, _, counts2, events2, _ := runOn(t, resumed, 600)
		assertSnapshotsTo(t, resumed, end)
		if !reflect.DeepEqual(res, res2) || counts != counts2 || !reflect.DeepEqual(events, events2) {
			t.Fatalf("resumed run ends %+v %v after %d events, the whole run %+v %v after %d", res2, counts2, len(events2), res, counts, len(events))
		}
	})
}
