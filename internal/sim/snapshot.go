package sim

// Engine state snapshot and restore — the simulator side of the
// checkpoint/restore layer (internal/checkpoint frames and persists the
// Snapshot; this file enumerates and rebuilds the state).
//
// Contract: a Snapshot taken between Step calls captures everything that
// influences future simulation behaviour, so that RestoreEngine continues
// with bit-identical results, counters and event streams — at any Workers
// count, which may differ from the snapshotting engine's. That works
// because results do not depend on the shard partition, and every
// piece of state that depends on the worker count (shard scratch buffers,
// the BlockTracker watermark/hot pair) is either transient between cycles
// or recomputed on restore.
//
// What is serialized is what the engine cannot derive: the cycle clock,
// message-ID allocator, all-time counters, the full reachable message table
// (each message with its Tail, the oldest input VC it holds), per-node durable
// router state (each input VC's run — message, first sequence number, count —
// and forwarding decision, injection/ejection channels, source and
// recovery/retry queues, generator RNG streams, stateful-limiter words,
// blockage counters, per-VC last-transmission cycles, arbiter pointers), fault
// machinery position (liveness masks, next-event index), the stats collector,
// and — when metrics are enabled — the registry's samples.
//
// What is deliberately NOT serialized, and why that is sound:
//   - derived state: the free/empty/full/routed status words, want/wantOut
//     and busyInj, which derive recomputes exactly from the durable state —
//     and with want the output-VC owners (ownerOf); a buffer's flits (its
//     run); a message's path past its Tail, which load walks along the routes;
//     an injection channel's copy of its message's length; the set-id caches
//     and nextGen, which load rebuilds;
//   - per-cycle scratch (killScratch, shard buffers): dead between cycles;
//   - the fresh words (fresh, freshInj): provably zero between cycles — a set
//     fresh bit implies a non-empty routed VC (or busy injection channel) on
//     that node, which keeps the node in the active set through the switch
//     phase, and the switch phase unconditionally clears the words of every
//     active node (teardown clears the bits of routes it releases);
//   - whether a waiting message is still a queue record or already an
//     object: a record is written as the message it will become, and load
//     takes every message that reads as one back as a record, so a restored
//     engine has the shape of the one that never stopped;
//   - the message pool: a recycled message is indistinguishable from a
//     freshly allocated one (Reuse == New up to the Pooled flag, which is not
//     observable), so a restored run recycles other objects than the
//     original did.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wormnet/internal/core"
	"wormnet/internal/message"
	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// Snapshot errors.
var (
	// ErrSnapshotConfig marks a restore into a configuration whose digest
	// does not match the snapshot's.
	ErrSnapshotConfig = errors.New("sim: snapshot config mismatch")
	// ErrSnapshotInvalid marks a snapshot whose contents are internally
	// inconsistent (references to unknown messages, wrong slice lengths, a
	// restored engine failing its invariant check).
	ErrSnapshotInvalid = errors.New("sim: invalid snapshot")
)

// SnapRoute is a serialized routeInfo.
type SnapRoute struct {
	Valid   bool
	Eject   bool
	OutPort int8
	OutVC   int8
	EjCh    int8
	Epoch   uint16
}

// SnapVC is one input virtual channel: the run its buffer holds — N flits of
// message Msg, the first numbered Seq; Msg and Seq 0 while N is — and its
// forwarding decision. The flits' Head and Tail flags follow from Seq and the
// message's length.
type SnapVC struct {
	Msg   int64
	Seq   int32
	N     int32
	Route SnapRoute
}

// SnapInj is one injection channel (Msg < 0 when free), with Left of its
// message's flits still to stream.
type SnapInj struct {
	Msg   int64
	Route SnapRoute
	Left  int32
}

// SnapEj is one ejection channel (Msg < 0 when free).
type SnapEj struct {
	Msg     int64
	Pending int32
}

// SnapPending is one recovery- or retry-queue entry.
type SnapPending struct {
	Msg     int64
	ReadyAt int64
}

// SnapMessage is the full serialized state of one reachable message.
type SnapMessage struct {
	ID           int64
	Src, Dst     int32
	Length       int32
	GenTime      int64
	InjectTime   int64
	DeliverTime  int64
	State        int8
	Injector     int32
	FlitsSent    int32
	FlitsEjected int32
	Recoveries   int32
	Retries      int32
	DropReason   string
	Measured     bool
	Pooled       bool
	// Tail is message.Message.Tail: 1 + the index of that input VC among the
	// network's, node by node in SnapNode.In order; 0 while it holds none. The
	// rest of the path is walked from there along the routes it claimed.
	Tail int32
}

// SnapNode is the durable state of one node.
type SnapNode struct {
	In       []SnapVC
	Inj      []SnapInj
	Ej       []SnapEj
	Queue    []int64 // source queue, front first
	Recovery []SnapPending
	Retry    []SnapPending
	Gen      traffic.GenState
	Limiter  []uint64 // nil for stateless limiters
	Blocked  []int32
	LastTx   []int64
	ArbNext  []int32
}

// Snapshot is the complete serializable state of an Engine between cycles.
// All fields are exported plain data so encoding/gob handles it without
// custom marshalling.
type Snapshot struct {
	// Config is the canonical digest of the engine's configuration
	// (ConfigDigest). RestoreEngine refuses a config whose digest differs —
	// except for Workers, which is deliberately excluded so a run may resume
	// at a different parallelism.
	Config string

	Now            int64
	NextID         int64
	Generated      int64
	Delivered      int64
	Recovered      int64
	Aborted        int64
	Retried        int64
	Dropped        int64
	SourcesStopped bool

	// Fault machinery position; the liveness slices are nil when fault
	// injection is off. Epoch is the routing epoch (liveness-changing events
	// applied so far; 0 on fault-free runs and on snapshots from engines
	// predating epoched routing).
	FaultIdx  int
	Epoch     uint64
	LinksUp   []bool
	RoutersUp []bool

	Messages []SnapMessage
	Nodes    []SnapNode
	Stats    stats.CollectorState

	// Metrics holds the registry samples of a metrics-enabled engine (nil
	// otherwise). RestoreEngine does not touch metrics; callers re-enable
	// them on the restored engine and Registry.Restore these samples so
	// mirrored totals continue seamlessly.
	Metrics []metrics.Sample
}

// ConfigDigest returns a canonical one-line description of everything in
// cfg that influences simulation results, EXCLUDING the worker count
// (results are bit-identical for any partition, so a checkpoint may be
// resumed at any parallelism). Func-typed fields are represented by their names; the
// fault schedule and retry policy are spelled out event by event.
func ConfigDigest(cfg Config) (string, error) {
	if err := cfg.validate(); err != nil {
		return "", err
	}
	return cfg.digest(), nil
}

// digest is ConfigDigest of a validated config: every Manifest entry but
// workers as "key=value", in key order, each value as fmt's %v prints it, then
// a faulted config's retry policy and fault events. It appends to one buffer
// instead of sorting a map of boxed values, so that an engine, whose config
// New validated, builds its digest in a few objects.
func (c *Config) digest() string {
	d := digestBuf{b: make([]byte, 0, 512)}
	if c.Adversary.Enabled() {
		a := &c.Adversary
		d.int("adv_hotspot", int64(a.Hotspot))
		d.float("adv_rogue_fraction", a.RogueFraction)
		d.float("adv_rogue_rate", a.RogueRate)
		d.uint("adv_seed", a.Seed)
		d.int("adv_storm_on", a.StormOn)
		d.int("adv_storm_period", a.StormPeriod)
	}
	d.int("buf_depth", int64(c.BufDepth))
	if c.Burst.Enabled() {
		d.float("burst_off", c.Burst.OffMean)
		d.float("burst_on", c.Burst.OnMean)
	}
	d.int("detection_threshold", int64(c.DetectionThreshold))
	d.int("drain_cycles", c.DrainCycles)
	d.int("ej_channels", int64(c.EjChannels))
	if !c.Faults.Empty() {
		d.int("fault_events", int64(len(c.Faults.Events())))
	}
	d.int("inj_channels", int64(c.InjChannels))
	d.int("k", int64(c.K))
	d.bool("lenient_detection", c.LenientDetection)
	d.str("limiter", c.LimiterName)
	d.int("measure_cycles", c.MeasureCycles)
	d.int("msg_len", int64(c.MsgLen))
	d.int("n", int64(c.N))
	d.str("pattern", c.Pattern)
	d.float("rate", c.Rate)
	d.int("recovery_delay", c.RecoveryDelay)
	d.str("routing", c.Routing)
	d.uint("seed", c.Seed)
	if c.Sources != nil {
		d.str("source", c.SourceName)
	}
	d.int("vcs", int64(c.VCs))
	d.int("warmup_cycles", c.WarmupCycles)
	if !c.Faults.Empty() {
		r := &c.Retry
		d.b = fmt.Appendf(d.b, "retry=%d/%d/%d faults=[", r.MaxRetries, r.BackoffBase, r.BackoffCap)
		for _, ev := range c.Faults.Events() {
			d.b = fmt.Appendf(d.b, "%d:%d:%d:%d ", ev.Cycle, ev.Kind, ev.Node, ev.Port)
		}
		d.b = append(d.b, ']')
	}
	return strings.TrimSpace(string(d.b))
}

// digestBuf appends a digest's "key=value " entries.
type digestBuf struct{ b []byte }

func (d *digestBuf) key(k string) { d.b = append(append(d.b, k...), '=') }

func (d *digestBuf) str(k, v string) {
	d.key(k)
	d.b = append(append(d.b, v...), ' ')
}

func (d *digestBuf) int(k string, v int64) {
	d.key(k)
	d.b = append(strconv.AppendInt(d.b, v, 10), ' ')
}

func (d *digestBuf) uint(k string, v uint64) {
	d.key(k)
	d.b = append(strconv.AppendUint(d.b, v, 10), ' ')
}

func (d *digestBuf) float(k string, v float64) {
	d.key(k)
	d.b = append(strconv.AppendFloat(d.b, v, 'g', -1, 64), ' ')
}

func (d *digestBuf) bool(k string, v bool) {
	d.key(k)
	d.b = append(strconv.AppendBool(d.b, v), ' ')
}

// loadedMessage builds the object sm describes, holding no buffer yet (load
// sets its Tail once the routes its path follows are in place), instead of
// allocating one: a pool-born message from the pool, which reset refilled with
// every one of them; one that is not (a snapshot's from before Inject drew
// from the pool) from loaded, which only the engine references — never handed
// out, never in the pool — so reset frees them all for the next load.
func (e *Engine) loadedMessage(sm *SnapMessage) *message.Message {
	var m *message.Message
	if sm.Pooled {
		m = e.pooled()
	} else {
		if e.loadedUsed == len(e.loaded) {
			e.loaded = append(e.loaded, new(message.Message))
		}
		m = e.loaded[e.loadedUsed]
		e.loadedUsed++
	}
	*m = message.Message{
		ID:           message.ID(sm.ID),
		Src:          topology.NodeID(sm.Src),
		Dst:          topology.NodeID(sm.Dst),
		Length:       sm.Length,
		GenTime:      sm.GenTime,
		InjectTime:   sm.InjectTime,
		DeliverTime:  sm.DeliverTime,
		State:        message.State(sm.State),
		Injector:     topology.NodeID(sm.Injector),
		FlitsSent:    sm.FlitsSent,
		FlitsEjected: sm.FlitsEjected,
		Recoveries:   sm.Recoveries,
		Retries:      sm.Retries,
		DropReason:   message.DropReason(sm.DropReason),
		Measured:     sm.Measured,
		Pooled:       sm.Pooled,
		Tail:         message.NoLoc,
	}
	return m
}

// waitingAt reports whether sm is what a record waiting in node n's source
// queue serializes as (Engine.Snapshot): generated there by the traffic source
// and never admitted, so nothing about it needs an object.
func (sm *SnapMessage) waitingAt(n topology.NodeID) bool {
	return sm.Pooled && sm.State == int8(message.StateQueued) &&
		sm.Src == int32(n) && sm.Injector == sm.Src &&
		sm.InjectTime == -1 && sm.DeliverTime == -1 &&
		sm.FlitsSent == 0 && sm.FlitsEjected == 0 && sm.Recoveries == 0 && sm.Retries == 0 &&
		sm.DropReason == "" && sm.Tail == 0
}

// locInRange reports whether loc names an input virtual channel of the network.
func (e *Engine) locInRange(loc pathLoc) bool {
	return loc.Node >= 0 && int(loc.Node) < len(e.nodes) && loc.Port >= 0 && int(loc.Port) < e.numPhys &&
		loc.VC >= 0 && int(loc.VC) < e.cfg.VCs
}

func snapRoute(r routeInfo) SnapRoute {
	return SnapRoute{Valid: r.valid, Eject: r.eject, OutPort: int8(r.outPort), OutVC: r.outVC, EjCh: r.ejCh, Epoch: r.epoch}
}

func loadRoute(s SnapRoute) routeInfo {
	return routeInfo{valid: s.Valid, eject: s.Eject, outPort: topology.Port(s.OutPort), outVC: s.OutVC, ejCh: s.EjCh, epoch: s.Epoch}
}

// routeInRange reports whether a serialized route names channels the router
// has, load refusing the rest before anything indexes by them, and whether an
// invalid one is the zero route SnapshotInto writes, which is all load keeps of
// it.
func (e *Engine) routeInRange(s SnapRoute) bool {
	switch {
	case !s.Valid:
		return s == SnapRoute{}
	case s.Eject:
		return s.EjCh >= 0 && int(s.EjCh) < e.cfg.EjChannels
	}
	return s.OutPort >= 0 && int(s.OutPort) < e.numPhys && s.OutVC >= 0 && int(s.OutVC) < e.cfg.VCs
}

// refs calls fn with every message reference of the node, in the order that
// numbers messages canonically (CanonBuf.encode) and that load resolves them
// in: buffered runs, injection channels, ejection channels, source queue,
// recovery queue, retry queue. An empty buffer or a free channel references
// nothing.
func (sn *SnapNode) refs(fn func(id int64)) {
	for c := range sn.In {
		if sn.In[c].N != 0 {
			fn(sn.In[c].Msg)
		}
	}
	for _, si := range sn.Inj {
		if si.Msg != -1 {
			fn(si.Msg)
		}
	}
	for _, se := range sn.Ej {
		if se.Msg != -1 {
			fn(se.Msg)
		}
	}
	for _, id := range sn.Queue {
		fn(id)
	}
	for _, sp := range sn.Recovery {
		fn(sp.Msg)
	}
	for _, sp := range sn.Retry {
		fn(sp.Msg)
	}
}

// Snapshot is SnapshotInto a new, zero Snapshot.
func (e *Engine) Snapshot() (*Snapshot, error) {
	s := new(Snapshot)
	return s, e.SnapshotInto(s)
}

// resize returns s with length n, reusing its storage; callers overwrite every element.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// addObject appends the message object m to s.Messages.
func (e *Engine) addObject(s *Snapshot, m *message.Message) {
	tail := int32(0)
	if m.Tail != message.NoLoc {
		tail = 1 + int32(int(m.Tail.Node)*e.nVC+e.inVCIndex(m.Tail.Port, m.Tail.VC))
	}
	s.Messages = append(s.Messages, SnapMessage{
		ID:           int64(m.ID),
		Src:          int32(m.Src),
		Dst:          int32(m.Dst),
		Length:       m.Length,
		GenTime:      m.GenTime,
		InjectTime:   m.InjectTime,
		DeliverTime:  m.DeliverTime,
		State:        int8(m.State),
		Injector:     int32(m.Injector),
		FlitsSent:    m.FlitsSent,
		FlitsEjected: m.FlitsEjected,
		Recoveries:   m.Recoveries,
		Retries:      m.Retries,
		DropReason:   string(m.DropReason),
		Measured:     m.Measured,
		Pooled:       m.Pooled,
		Tail:         tail,
	})
}

// carve gives s nodes of e's shape whose per-node and per-VC slices are capped
// cuts of one array per field, so that a new snapshot is a few objects, not a
// few per channel. A node's queue has room for the messages waiting there now.
func (e *Engine) carve(s *Snapshot) {
	n, nVC := len(e.nodes), e.nVC
	nInj, nEj, nArb := e.cfg.InjChannels, e.cfg.EjChannels, e.numPhys+e.cfg.EjChannels
	queued := 0
	for i := range e.nodes {
		queued += e.nodes[i].queue.Len()
	}
	s.Nodes = make([]SnapNode, n)
	vcs, lastTx, blocked := make([]SnapVC, n*nVC), make([]int64, n*nVC), make([]int32, n*nVC)
	inj, ej, arb := make([]SnapInj, n*nInj), make([]SnapEj, n*nEj), make([]int32, n*nArb)
	queues := make([]int64, queued)
	for i := range s.Nodes {
		sn := &s.Nodes[i]
		sn.In, sn.LastTx, sn.Blocked = cut(vcs, i, nVC), cut(lastTx, i, nVC), cut(blocked, i, nVC)
		sn.Inj, sn.Ej, sn.ArbNext = cut(inj, i, nInj), cut(ej, i, nEj), cut(arb, i, nArb)
		q := e.nodes[i].queue.Len()
		sn.Queue, queues = queues[:q:q], queues[q:]
	}
}

// SnapshotInto captures the engine's complete state in s: the one walk over its
// durable state. s may hold anything — an earlier snapshot's slices, nested ones
// included, are overwritten and reused (carved first if its nodes do not fit),
// and one left empty stands for nil (gob and the canonical form write both
// alike). Call it between
// Step calls (never from a listener or sample hook), on one goroutine at a time,
// while nothing reads s. The engine is not modified, the result shares no memory
// with it, and an error leaves s half-written.
func (e *Engine) SnapshotInto(s *Snapshot) error {
	*s = Snapshot{
		Config:         e.configDigest(),
		Now:            e.now,
		NextID:         int64(e.nextID),
		Generated:      e.generated,
		Delivered:      e.delivered,
		Recovered:      e.recovered,
		Aborted:        e.aborted,
		Retried:        e.retried,
		Dropped:        e.dropped,
		SourcesStopped: e.sourcesStopped,
		FaultIdx:       e.faultIdx,
		Epoch:          e.epoch,
		LinksUp:        s.LinksUp[:0],
		RoutersUp:      s.RoutersUp[:0],
		Messages:       s.Messages[:0],
		Nodes:          s.Nodes,
		Stats:          s.Stats,
	}
	if len(s.Nodes) != len(e.nodes) {
		e.carve(s)
	}
	e.col.StateInto(&s.Stats)
	if e.live != nil {
		nPorts := e.topo.NumPorts()
		s.LinksUp = resize(s.LinksUp, len(e.nodes)*nPorts)
		s.RoutersUp = resize(s.RoutersUp, len(e.nodes))
		for n := range e.nodes {
			id := topology.NodeID(n)
			s.RoutersUp[n] = e.live.RouterAlive(id)
			for p := 0; p < nPorts; p++ {
				s.LinksUp[n*nPorts+p] = e.live.LinkUp(id, topology.Port(p))
			}
		}
	}
	if e.metReg != nil {
		s.Metrics = e.metReg.Snapshot()
	}

	// Every live message is written once: the network's, then each waiting one
	// where its node's queues name it (a waiting message holds no network
	// state). The per-node state references them by ID.
	s.Messages = slices.Grow(s.Messages, int(e.InFlight()))
	for _, h := range e.held() {
		e.addObject(s, h.m)
	}
	nVC := e.nVC
	for i := range e.nodes {
		nd := &e.nodes[i]
		sn := &s.Nodes[i]

		in, routes := e.inOf(nd.id), e.routesOf(nd.id)
		sn.In = resize(sn.In, nVC)
		for c := 0; c < nVC; c++ {
			sn.In[c] = SnapVC{Route: snapRoute(routes[c])}
			if b := &in[c].buf; !b.Empty() {
				f := b.Front()
				sn.In[c].Msg, sn.In[c].Seq, sn.In[c].N = int64(f.Msg.ID), f.Seq, int32(b.Len())
			}
		}

		sn.Inj = resize(sn.Inj, e.cfg.InjChannels)
		for j, ic := range e.injOf(nd.id) {
			sn.Inj[j] = SnapInj{Msg: -1}
			if ic.msg != nil {
				sn.Inj[j] = SnapInj{Msg: int64(ic.msg.ID), Route: snapRoute(ic.route), Left: ic.left}
			}
		}

		sn.Ej = resize(sn.Ej, e.cfg.EjChannels)
		for j, ec := range e.ejOf(nd.id) {
			sn.Ej[j] = SnapEj{Msg: -1}
			if ec.msg != nil {
				sn.Ej[j] = SnapEj{Msg: int64(ec.msg.ID), Pending: ec.pending}
			}
		}

		// A waiting message that is still only a record serializes as exactly
		// the message it will become.
		sn.Queue = slices.Grow(sn.Queue[:0], nd.queue.Len())
		e.eachWaiting(nd, func(r *queued) {
			sn.Queue = append(sn.Queue, int64(r.id))
			if m := e.object(r.id); m != nil {
				e.addObject(s, m)
				return
			}
			s.Messages = append(s.Messages, SnapMessage{
				ID: int64(r.id), Src: int32(nd.id), Dst: int32(r.dst), Length: e.recordLen(r),
				GenTime: r.gen, InjectTime: -1, DeliverTime: -1,
				State: int8(message.StateQueued), Injector: int32(nd.id),
				Measured: e.col.InWindow(r.gen), Pooled: true,
			})
		})
		sn.Recovery = sn.Recovery[:0]
		for _, pr := range nd.recovery {
			e.addObject(s, pr.msg)
			sn.Recovery = append(sn.Recovery, SnapPending{Msg: int64(pr.msg.ID), ReadyAt: pr.readyAt})
		}
		sn.Retry = sn.Retry[:0]
		for _, pr := range nd.retry {
			e.addObject(s, pr.msg)
			sn.Retry = append(sn.Retry, SnapPending{Msg: int64(pr.msg.ID), ReadyAt: pr.readyAt})
		}

		gen, ok := nd.src.(traffic.Stateful)
		if !ok {
			return fmt.Errorf("sim: generator %T is not snapshot-capable", nd.src)
		}
		if err := gen.SaveStateInto(&sn.Gen); err != nil {
			return err
		}

		if sl, ok := nd.limiter.(core.StatefulLimiter); ok {
			sn.Limiter = sl.AppendState(sn.Limiter[:0])
		} else {
			sn.Limiter = nil
		}

		sn.Blocked = nd.blocked.AppendCounters(sn.Blocked[:0])
		sn.LastTx = append(sn.LastTx[:0], e.lastTxOf(nd.id)...)
		sn.ArbNext = resize(sn.ArbNext, e.numPhys+e.cfg.EjChannels)
		for j, a := range e.arbOf(nd.id) {
			sn.ArbNext[j] = int32(a.Next())
		}
	}

	slices.SortFunc(s.Messages, func(a, b SnapMessage) int { return cmp.Compare(a.ID, b.ID) })
	return nil
}

// configDigest returns ConfigDigest(e.cfg), built on first use and kept: the
// configuration is immutable after New, which validated it.
func (e *Engine) configDigest() string {
	if e.digest == "" {
		e.digest = e.cfg.digest()
	}
	return e.digest
}

// RestoreEngine builds a fresh engine from cfg and loads snap into it,
// returning an engine that continues the snapshotted run bit-identically.
// cfg must describe the same run as the snapshotting engine's config
// (ConfigDigest equality); only Workers may differ. It is exactly New
// followed by Restore.
func RestoreEngine(cfg Config, snap *Snapshot) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Restore(snap); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Restore loads snap into e in place, between Step calls, whatever e has run
// so far: afterwards e is indistinguishable from RestoreEngine(e.Config(),
// snap). Listener, metrics, sample hook, spans and reconfiguration hook are
// detached, as on a fresh engine — re-attach them afterwards (Registry.Restore
// snap.Metrics after EnableMetrics continues mirrored totals). A config
// mismatch (ErrSnapshotConfig) leaves e untouched; an invalid snapshot
// (ErrSnapshotInvalid) leaves it reset: empty, to be restored before stepping.
func (e *Engine) Restore(snap *Snapshot) error {
	if d := e.configDigest(); d != snap.Config {
		return fmt.Errorf("%w: snapshot taken with config %q, restoring into %q",
			ErrSnapshotConfig, snap.Config, d)
	}
	e.reset()
	if err := e.load(snap); err != nil {
		e.reset()
		return err
	}
	return nil
}

// reset empties the engine in place: cycle 0, no messages anywhere, nothing
// attached. New ends in it, so it defines the empty engine. It covers the
// durable router state and all that derives from it. What load overwrites
// wholesale — liveness and the candidate table that follows it, generator,
// limiter, blockage, arbiter and collector words — is left alone, as is the
// record arena's capacity, whose contents are unobservable. The message pool
// gets back every pool-born message: none is referenced any more.
func (e *Engine) reset() {
	e.now, e.nextID, e.faultIdx, e.epoch = 0, 0, 0, 0
	e.generated, e.delivered, e.recovered, e.aborted, e.retried, e.dropped = 0, 0, 0, 0, 0, 0
	e.sourcesStopped = false
	e.listener, e.onReconfig, e.spans = nil, nil, nil
	e.met, e.metReg, e.onSample = nil, nil, nil
	e.col.DropDeliverySeries() // load brings back the snapshot's, if any
	for c := range e.in {
		e.in[c], e.lastTx[c] = inVC{}, -1
	}
	clear(e.routes)
	clear(e.inj)
	clear(e.ej)
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.fresh, nd.freshInj = 0, 0
		e.rederive(nd)
		nd.queue, nd.sfx = srcQueue{}, 0
		clear(nd.recovery)
		nd.recovery = nd.recovery[:0]
		clear(nd.retry)
		nd.retry = nd.retry[:0]
	}
	e.waiting.reset()
	e.suffixes.reset()
	clear(e.built)
	clear(e.lengths)
	e.refillPool()
	e.loadedUsed = 0
	e.par.reset()
}

// reset clears what the sharded runtime carries between cycles. The ring stamps
// encode the cycle: a restore may rewind the clock to one a consumer has seen.
func (p *parRuntime) reset() {
	for i := range p.rings {
		p.rings[i].pub.Store(0)
		p.rings[i].seen = 0
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.moves = sh.moves[:0]
		sh.busyNS, sh.ringMax, sh.ringPushes = 0, 0, 0
	}
}

// load populates a reset engine from snap. It checks what must hold before a
// write could panic or index out of range, and refuses a value it would drop or
// duplicate — a message nothing references, or a waiting one (queued,
// recovering, retrying) referenced more than once; derive rebuilds the derived
// words, and the rest is CheckInvariants', run on the loaded engine.
func (e *Engine) load(snap *Snapshot) error {
	nVC := e.nVC
	if len(snap.Nodes) != len(e.nodes) {
		return fmt.Errorf("%w: %d nodes, engine has %d", ErrSnapshotInvalid, len(snap.Nodes), len(e.nodes))
	}

	e.now, e.nextID, e.sourcesStopped = snap.Now, message.ID(snap.NextID), snap.SourcesStopped
	e.generated, e.delivered, e.recovered = snap.Generated, snap.Delivered, snap.Recovered
	e.aborted, e.retried, e.dropped = snap.Aborted, snap.Retried, snap.Dropped

	// Fault machinery position.
	if e.live != nil {
		nPorts := e.topo.NumPorts()
		if len(snap.LinksUp) != len(e.nodes)*nPorts || len(snap.RoutersUp) != len(e.nodes) {
			return fmt.Errorf("%w: liveness masks sized %d/%d, want %d/%d",
				ErrSnapshotInvalid, len(snap.LinksUp), len(snap.RoutersUp), len(e.nodes)*nPorts, len(e.nodes))
		}
		if snap.FaultIdx < 0 || snap.FaultIdx > len(e.faultEvents) {
			return fmt.Errorf("%w: fault index %d of %d events", ErrSnapshotInvalid, snap.FaultIdx, len(e.faultEvents))
		}
		e.faultIdx = snap.FaultIdx
		e.epoch = snap.Epoch
		changed := false
		for n := range e.nodes {
			id := topology.NodeID(n)
			changed = e.live.SetRouter(id, snap.RoutersUp[n]) || changed
			for p := 0; p < nPorts; p++ {
				changed = e.live.SetLink(id, topology.Port(p), snap.LinksUp[n*nPorts+p]) || changed
			}
		}
		// The candidate table is a pure function of the liveness mask and
		// always matches the engine's current one (all-alive after New,
		// replaced at every epoch flip): replace it only if the mask moved.
		if changed {
			e.retable()
		}
	} else if len(snap.LinksUp) != 0 || len(snap.RoutersUp) != 0 || snap.FaultIdx != 0 || snap.Epoch != 0 {
		return fmt.Errorf("%w: snapshot carries fault state but faults are off", ErrSnapshotInvalid)
	}

	// The message table. Snapshot writes it in ascending id order (the
	// canonical encoding depends on that too), so a reference is resolved by
	// binary search, and a message becomes an object when the first reference
	// that needs one is: a source queue takes the messages that are exactly what
	// a waiting record serializes as back as records.
	for i := range snap.Messages {
		sm := &snap.Messages[i]
		if i > 0 && sm.ID <= snap.Messages[i-1].ID {
			return fmt.Errorf("%w: message %d out of order or duplicated", ErrSnapshotInvalid, sm.ID)
		}
		if sm.Length < 1 || sm.Length > router.MaxMessageLen || !e.topo.Valid(topology.NodeID(sm.Src)) ||
			!e.topo.Valid(topology.NodeID(sm.Dst)) || !e.topo.Valid(topology.NodeID(sm.Injector)) {
			return fmt.Errorf("%w: message %d of length %d from node %d to %d, injected at %d",
				ErrSnapshotInvalid, sm.ID, sm.Length, sm.Src, sm.Dst, sm.Injector)
		}
	}
	nMsg := len(snap.Messages)
	find := func(id int64) int { // nMsg for an unknown id
		i := sort.Search(nMsg, func(i int) bool { return snap.Messages[i].ID >= id })
		if i < nMsg && snap.Messages[i].ID == id {
			return i
		}
		return nMsg
	}
	// Every reference resolves, and every message is referenced (load would
	// drop one nothing reaches), before anything is loaded. at is each
	// reference's message index in SnapNode.refs order, the order the loop
	// below takes them in (next), so its lookups cannot fail; hits[i] counts
	// message i's references, hits[nMsg] those to unknown messages.
	hits, at := resize(e.loadHits, nMsg+1), e.loadAt[:0]
	clear(hits)
	for i := range snap.Nodes {
		snap.Nodes[i].refs(func(id int64) {
			j := find(id)
			hits[j]++
			at = append(at, int32(j))
		})
	}
	e.loadHits, e.loadAt = hits, at
	if hits[nMsg] != 0 {
		return fmt.Errorf("%w: %d references to unknown messages", ErrSnapshotInvalid, hits[nMsg])
	}
	if i := slices.Index(hits[:nMsg], 0); i >= 0 {
		return fmt.Errorf("%w: message %d is referenced by nothing", ErrSnapshotInvalid, snap.Messages[i].ID)
	}
	objs := resize(e.loadObjs, nMsg)
	clear(objs)
	e.loadObjs = objs
	obj := func(i int) *message.Message {
		if objs[i] == nil {
			objs[i] = e.loadedMessage(&snap.Messages[i])
		}
		return objs[i]
	}
	next := func() int {
		j := at[0]
		at = at[1:]
		return int(j)
	}
	msg := func() *message.Message { return obj(next()) }

	for i := range e.nodes {
		nd := &e.nodes[i]
		sn := &snap.Nodes[i]
		in, routes := e.inOf(nd.id), e.routesOf(nd.id)
		inj, ej, arb := e.injOf(nd.id), e.ejOf(nd.id), e.arbOf(nd.id)
		if len(sn.In) != nVC ||
			len(sn.Inj) != len(inj) || len(sn.Ej) != len(ej) ||
			len(sn.Blocked) != nVC || len(sn.LastTx) != nVC ||
			len(sn.ArbNext) != len(arb) {
			return fmt.Errorf("%w: node %d state shape mismatch", ErrSnapshotInvalid, i)
		}

		for c := 0; c < nVC; c++ {
			sv := &sn.In[c]
			if sv.N == 0 && (sv.Msg != 0 || sv.Seq != 0) || sv.N < 0 || int(sv.N) > e.cfg.BufDepth {
				return fmt.Errorf("%w: node %d vc %d holds a run of %d flits (message %d from flit %d) in a buffer of %d",
					ErrSnapshotInvalid, i, c, sv.N, sv.Msg, sv.Seq, e.cfg.BufDepth)
			}
			if sv.N != 0 {
				m := msg()
				if sv.Seq < 0 || sv.Seq >= m.Length || sv.N > m.Length-sv.Seq {
					return fmt.Errorf("%w: node %d vc %d holds flits %d to %d of msg %d, which has %d",
						ErrSnapshotInvalid, i, c, sv.Seq, sv.Seq+sv.N-1, m.ID, m.Length)
				}
				for seq := sv.Seq; seq < sv.Seq+sv.N; seq++ {
					in[c].buf.Push(message.MakeFlit(m, int(seq)))
				}
			}
			if !e.routeInRange(sv.Route) {
				return fmt.Errorf("%w: node %d vc %d route out of range", ErrSnapshotInvalid, i, c)
			}
			if sv.Route.Valid {
				routes[c] = loadRoute(sv.Route)
			}
		}
		for j := range inj {
			si := &sn.Inj[j]
			if !e.routeInRange(si.Route) || si.Msg == -1 && *si != (SnapInj{Msg: -1}) {
				return fmt.Errorf("%w: node %d inj %d route out of range, or a free channel's fields set", ErrSnapshotInvalid, i, j)
			}
			if si.Msg != -1 {
				m := msg()
				inj[j] = injChannel{msg: m, route: loadRoute(si.Route), left: si.Left, len: m.Length}
			}
		}
		if !e.rederive(nd) {
			return fmt.Errorf("%w: node %d routes two agents to one output channel", ErrSnapshotInvalid, i)
		}
		for j := range ej {
			if se := &sn.Ej[j]; se.Msg != -1 {
				ej[j] = ejChannel{msg: msg(), pending: se.Pending}
			} else if se.Pending != 0 {
				return fmt.Errorf("%w: node %d ej %d is free with %d flits pending", ErrSnapshotInvalid, i, j, se.Pending)
			}
		}

		// A waiting message (queued, recovering, retrying) holds no network
		// state, so the entry naming it must be its only reference.
		for _, j := range at[:len(sn.Queue)+len(sn.Recovery)+len(sn.Retry)] {
			if hits[j] != 1 {
				return fmt.Errorf("%w: node %d: waiting message %d has %d references, want 1", ErrSnapshotInvalid, i, snap.Messages[j].ID, hits[j])
			}
		}
		// A bare record derives its Measured flag from its generation cycle: a
		// message whose flag says otherwise waits as an object.
		for range sn.Queue {
			j := next()
			if sm := &snap.Messages[j]; sm.waitingAt(nd.id) && sm.Measured == e.col.InWindow(sm.GenTime) {
				e.waiting.push(&nd.queue, e.bareRecord(message.ID(sm.ID), sm.GenTime, topology.NodeID(sm.Dst), sm.Length))
				continue
			}
			e.waiting.push(&nd.queue, e.recordOf(obj(j)))
		}
		for _, sp := range sn.Recovery {
			nd.recovery = append(nd.recovery, pending{msg: msg(), readyAt: sp.ReadyAt})
		}
		for _, sp := range sn.Retry {
			nd.retry = append(nd.retry, pending{msg: msg(), readyAt: sp.ReadyAt})
		}

		gen, ok := nd.src.(traffic.Stateful)
		if !ok {
			return fmt.Errorf("sim: generator %T is not snapshot-capable", nd.src)
		}
		if err := gen.LoadState(sn.Gen); err != nil {
			return fmt.Errorf("%w: node %d: %v", ErrSnapshotInvalid, i, err)
		}
		nd.nextGen = nd.src.NextAt()

		sl, stateful := nd.limiter.(core.StatefulLimiter)
		if stateful != (sn.Limiter != nil) {
			return fmt.Errorf("%w: node %d limiter statefulness mismatch", ErrSnapshotInvalid, i)
		}
		if stateful {
			if err := sl.LoadState(sn.Limiter); err != nil {
				return fmt.Errorf("%w: node %d: %v", ErrSnapshotInvalid, i, err)
			}
		}

		if err := nd.blocked.RestoreCounters(sn.Blocked); err != nil {
			return fmt.Errorf("%w: node %d: %v", ErrSnapshotInvalid, i, err)
		}
		copy(e.lastTxOf(nd.id), sn.LastTx)
		for j := range arb {
			nx := int(sn.ArbNext[j])
			if nx < 0 || nx >= arb[j].N() {
				return fmt.Errorf("%w: node %d arbiter %d pointer %d", ErrSnapshotInvalid, i, j, nx)
			}
			arb[j].SetNext(nx)
		}
	}

	// A message's path is its Tail and the hops its claimed routes lead to;
	// CheckInvariants holds each path to the buffers and channels that name
	// its message, one message to a VC. A buffer names its message from the
	// paths, not from its contents alone: a channel the head has already left
	// but whose tail is still upstream has an empty buffer yet stays the
	// message's — its route is live, and it is what owns the output VC the
	// route claims (ownerOf). So every empty buffer on a path is reserved for
	// the path's message. A walk longer than the network has input VCs loops.
	for i := range snap.Messages {
		sm := &snap.Messages[i]
		if sm.Tail < 0 || int(sm.Tail) > len(e.in) {
			return fmt.Errorf("%w: message %d Tail %d names no input virtual channel", ErrSnapshotInvalid, sm.ID, sm.Tail)
		}
		if sm.Tail == 0 {
			continue
		}
		t, a := int(sm.Tail-1)/e.nVC, int(sm.Tail-1)%e.nVC
		objs[i].Tail = pathLoc{Node: topology.NodeID(t), Port: topology.Port(a / e.cfg.VCs), VC: int8(a % e.cfg.VCs)} // no record has a Tail
		for loc, more, n := objs[i].Tail, true, 0; more; loc, more = e.nextLoc(loc) {
			if n++; n > len(e.in) {
				return fmt.Errorf("%w: message %d path loops", ErrSnapshotInvalid, sm.ID)
			}
			if b := &e.inOf(loc.Node)[e.inVCIndex(loc.Port, loc.VC)].buf; b.Empty() {
				b.Reserve(objs[i])
			}
		}
	}

	// Class accounting follows the adversary config: a collector must never
	// adopt it from a snapshot, or it would outlive this load. Refuse that
	// and the class-map and series shapes Restore would index or build by.
	st := &snap.Stats
	if (st.Classes != nil) != e.cfg.Adversary.Enabled() ||
		(st.Classes != nil && len(st.Classes.ClassOf) != len(e.nodes)) ||
		(st.DeliveredSeries != nil && (st.DeliveredSeries.Interval < 1 || len(st.DeliveredSeries.Buckets) < 1)) {
		return fmt.Errorf("%w: collector state does not fit this engine", ErrSnapshotInvalid)
	}
	if err := e.col.Restore(snap.Stats); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotInvalid, err)
	}
	if err := e.CheckInvariants(); err != nil {
		return fmt.Errorf("%w: restored engine fails invariants: %v", ErrSnapshotInvalid, err)
	}
	return nil
}
