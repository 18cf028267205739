package sim

import (
	"fmt"
	"runtime"

	"wormnet/internal/core"
	"wormnet/internal/deadlock"
	"wormnet/internal/fault"
	"wormnet/internal/message"
	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// routeInfo is the forwarding decision attached to an input virtual channel
// or injection channel while a message traverses it. Allocation cycle is not
// recorded here: the node's fresh masks mark routes assigned in the current
// cycle (movement starts the next one). epoch stamps the routing epoch the
// decision belongs to: routes are allocated at the engine's current epoch,
// and every liveness reconfiguration revalidates surviving routes to the new
// epoch (see reconfigure), so a valid route's stamp always equals the
// engine's epoch — the epoch-consistency invariant. The stamp is the low 16
// bits of Engine.epoch; the revalidation sweep keeps equality exact across
// wrap.
type routeInfo struct {
	valid   bool
	eject   bool
	outPort topology.Port // valid when !eject
	outVC   int8          // valid when !eject
	ejCh    int8          // valid when eject
	epoch   uint16
}

// inVC is one input virtual channel: its flit buffer, 16 bytes. Input VCs are
// stored by value in Engine.in, channel id port*VCs+vc of node id at id*nVC
// plus the channel id, so a node's entire input state is contiguous in memory.
// The forwarding decisions live in the parallel Engine.routes arena: the
// switch phase walks routes alone, four to a cache line, without pulling in
// buffer state. The buffer's Note caches the candidate-set id of (this node,
// the run's message's Dst), or 0 before the header's first allocation attempt
// looked it up from the message: a head moving in (Push) and every routing
// epoch flip zero it, so retries never touch the (cold) message struct.
type inVC struct {
	buf router.Buffer
}

// injChannel is one of the node's injection channels: a message being
// streamed into the network flit by flit. left caches the flits still to
// send (Length - FlitsSent), so the switch phase's done-streaming check
// never dereferences the message. A channel is busy while len != 0: the
// injection section claims it for a queue record by filling left, len and set,
// and msg follows at the section's commit, where the object is built — so
// within that section msg is still nil on a channel claimed in it. set is the
// input VC's Note for the header waiting here: a queue claim always fills it
// (the id the injection gate looked up for the queue head, or a lookup of the
// record's dst), a recovery-list claim leaves it 0.
type injChannel struct {
	msg   *message.Message
	route routeInfo
	left  int32
	len   int32 // the message's length; 0 on an idle channel
	set   uint16
}

// ejChannel is one of the node's ejection channels. pending counts flits
// consumed but not yet folded into msg.FlitsEjected: the per-flit counter
// update happens on this hot little struct, and the message is charged in
// one go when its tail arrives (or the message is torn down).
type ejChannel struct {
	msg     *message.Message // nil when free
	pending int32
}

// pending is a message waiting until readyAt at a node: in its recovery list,
// a recovered message waiting out the software re-injection cost; in its retry
// list, a fault-killed message waiting out its source-retry backoff, after
// which it rejoins the front of the source queue.
type pending struct {
	msg     *message.Message
	readyAt int64
}

// node is one network endpoint: a router plus its local injection state.
// Nodes are stored by value in Engine.nodes; all code must take the
// address (&e.nodes[i]) rather than copy. A node is its status words,
// counters and id: its channels live in the engine's arenas, where the id
// finds them (inOf and the other accessors below Engine).
type node struct {
	id topology.NodeID
	// sfx is 1 + the slot of the node's derived suffix in Engine.suffixes, 0
	// while it has none (fifo.go).
	sfx int32
	// seq numbers the node's next message: its id is seq*len(nodes) + id
	// (Engine.newID), so one node's messages have consecutive sequence
	// numbers and no two nodes draw the same id.
	seq int64

	// busyInj counts the injection channels streaming a message. With the
	// node's empty word it is the active set: the allocation and switch phases
	// skip a node outright while every input buffer is empty and busyInj is
	// zero, so idle regions of the network cost nothing per cycle.
	busyInj int
	// wantOut has bit o set while some agent is routed to output o (physical
	// ports, then ejection channels): the switch phase visits only those.
	wantOut uint64

	queue    srcQueue  // source queue: a chain in Engine.waiting, then a suffix
	recovery []pending // software-recovery queue (priority)
	retry    []pending // fault-retry queue (backoff; faults only)

	src traffic.Generator
	// nextGen caches src.NextAt(): the generation phase skips the node
	// while now is before it, without touching the source.
	nextGen int64

	limiter core.Limiter
	// limObs caches the limiter's CycleObserver assertion (nil when the
	// limiter has no per-cycle hook) and view the node's preallocated
	// ChannelView, so the injection phase performs no per-cycle interface
	// conversions. rules is the limiter when it is a member of the ALO family
	// (gated): asked once at New, so the gate runs on the free word, and only
	// such a node attributes a denial to rule (a)/(b). Any other limiter's
	// (LF, DRIL, none, wrappers, custom ones) stays Allow over view (admits).
	limObs core.CycleObserver
	view   *channelView
	rules  core.Rules
	gated  bool
	// rogue marks an adversarial node (Config.Adversary): its injections
	// bypass the limiter gate entirely.
	rogue bool

	// blocked tracks consecutive cycles each input VC's header failed to
	// obtain an output virtual channel (deadlock detection input).
	blocked deadlock.BlockTracker

	// Status registers, one word each, bit p*VCs+v = virtual channel v of
	// physical port p — the agent index and the candidate words' bit order.
	// free has the unallocated output VCs and routed the input VCs holding a
	// valid forwarding decision (bit a set iff route a is valid); the two
	// registers a neighbour reads, which of the node's input buffers are
	// empty and which at capacity, are Engine.empty and Engine.full at the
	// node's id. The gate, the allocator and the switch test whole candidate
	// sets against these words: the allocation walk visits occupied AND
	// unrouted channels, the switch walk occupied AND routed ones.
	free   uint64
	routed uint64
	// fresh marks input VCs (and freshInj injection channels) whose route
	// was assigned in the current cycle: the switch phase skips them — a
	// flit moves no earlier than the cycle after allocation — and clears
	// the words as it goes. This replaces a per-route assignment
	// timestamp, halving routeInfo.
	fresh    uint64
	freshInj uint64
}

// noAgent marks an output no agent is routed to in Engine.want. Shifting by it
// yields 0 (Go defines shifts past the word), so "1 << want" needs no test.
const noAgent = 0xFF

// agent indices: input VCs first (flat channel id), then injection channels.
func (e *Engine) agentCount() int { return e.nVC + e.cfg.InjChannels }

// move is one planned flit transfer of the current cycle.
type move struct {
	node  int32 // node whose crossbar the flit traverses
	agent int32 // source agent index (input VC or injection channel)
	eject bool
	ejCh  int8
	// destination (forward moves): filled from the agent's route
	outPort topology.Port
	outVC   int8
}

// pathLoc identifies a buffer holding flits of an in-flight message: the
// input virtual channel (port, vc) of a node. A message stores only the
// oldest one it holds (message.Message.Tail); the route on each names the
// next (nextLoc), so a path is walked, never stored.
type pathLoc = message.PathLoc

// Engine is a single simulation run. It is not safe for concurrent use;
// run independent Engines on separate goroutines instead (see
// internal/experiments).
type Engine struct {
	cfg     Config
	topo    *topology.Torus
	alg     routing.Algorithm
	det     deadlock.Detector
	col     *stats.Collector
	nodes   []node
	numPhys int
	nVC     int // virtual channels a node has per side: numPhys*VCs
	now     int64

	// The channels of every node, one arena each: a node's run starts at its
	// id times the run's length (the accessors below New cut it). Runs of nVC,
	// by agent (the flat channel id p*VCs+v): input VCs, their routes, and
	// lastTx, the last cycle a flit crossed output VC p*VCs+v (the FC3D-style
	// detector tells a dead knot from congestion by it). want is the agent
	// routed to output VC p*VCs+v or ejection channel nVC+c (noAgent: none),
	// the switch phase's standing request (setWant, clearWant) and the output
	// VC's owner (ownerOf): a channel is allocated together with the route
	// that claims it, and released when that route goes. nbr is the
	// neighbour behind each physical port, the index of its words in empty and
	// full and, times nVC, of its input VCs: a flit sent on (p, v) lands in
	// Opposite(p)*VCs+v (downstream). outArb arbitrates each output.
	in     []inVC
	routes []routeInfo
	lastTx []int64
	inj    []injChannel
	ej     []ejChannel
	want   []uint8
	nbr    []topology.NodeID
	outArb []router.RoundRobin

	// cand is the precomputed routing candidate table of the current liveness
	// mask: shape's, shared and read-only, while nothing is down, and
	// faultCand, this engine's overlay of it rebuilt at the last epoch flip,
	// otherwise (retable) — so a lookup always equals a routing call under the
	// mask, healed channels included from the cycle their repair commits.
	shape     *shape
	cand      *candTable
	faultCand *candTable

	// waiting is the record arena behind every node's source queue, built
	// the objects of the few waiting messages that already have one, and
	// lengths those of the bare records whose message is not cfg.MsgLen long
	// (both by id; see queued). lengths is made on first use: a synthetic
	// run never files one. suffixes holds the queues' derived suffixes, which
	// only a run that replays its sources has (replay: no fault schedule —
	// a dead router skips polls — and no Sources factory). A generated
	// message is a record or a derived message there until an injection
	// channel admits it. walk is the scratch suffix eachWaiting and
	// CheckInvariants replay on, and cursor CheckInvariants': engine-held, so
	// that replaying on them allocates nothing.
	waiting  recordArena
	suffixes suffixArena
	replay   bool
	built    map[message.ID]*message.Message
	lengths  map[message.ID]int32
	walk     suffix
	cursor   traffic.Cursor

	// pool is the free list of recycled messages: a delivered or dropped
	// message is reset and reused. A message is an object only from
	// admission to delivery, and the network bounds how many are, so the pool
	// reaches a fixed point at any load and steady-state traffic allocates
	// nothing. It is engine-global — the sum of per-node peaks is far above
	// the network's — and so only serial contexts touch it. Inject and load
	// draw from it too. An empty pool is refilled a slab at a time (newSlab);
	// slabs are every message object there is, so reset, after which none
	// is referenced, refills the pool with all of them.
	pool  []*message.Message
	slabs [][]message.Message

	// empty and full are the input-buffer status registers of the whole
	// network, one word per node (bit p*VCs+v, like the node's own words):
	// the two a neighbour reads — the allocator its downstream empty fields,
	// the switch its downstream full fields, through nbr — so they sit
	// in two dense arrays a few kilobytes each that stay cache-resident,
	// instead of in 512 scattered node structs.
	empty []uint64
	full  []uint64
	// inMask has the bit of every input VC, so the bits a status word may
	// hold, and portsLow the low bit of every physical port's field: the
	// useful word of a limiter that inspects all channels.
	inMask   uint64
	portsLow uint64

	// xbarMask[a] is the agents sharing agent a's crossbar input (its port's
	// VCs, or the injection channel alone).
	xbarMask []uint64

	// par is the sharded runtime that runs the cycle (see parallel.go): one
	// shard at Workers <= 1 or on a single-P host. Results are bit-identical
	// for any partition.
	par *parRuntime

	// sourcesStopped suppresses traffic generation (see StopSources).
	sourcesStopped bool

	// live is the channel/router liveness mask; nil whenever fault
	// injection is off, which keeps the fault-free path identical to the
	// seed simulator (every fault hook is behind a nil check).
	live *topology.Liveness
	// faultEvents is the run's sorted fault schedule; faultIdx is the next
	// event to apply.
	faultEvents []fault.Event
	faultIdx    int
	// killScratch reuses the kill-collection slice of fault application.
	killScratch []*message.Message
	// epoch counts routing reconfigurations: it starts at 0 and increments
	// once per applied liveness-changing fault or repair event. Every epoch
	// flip re-derives the candidate table's fault overlay and revalidates
	// surviving routes (reconfigure), so healed capacity re-enters routing
	// decisions online, without draining the network.
	epoch uint64
	// onReconfig, when non-nil, runs after each reconfiguration (serially,
	// before the cycle's phases — deterministic at any worker count). Tests
	// hang transition-safety checks here: epoch invariants and the
	// wait-graph oracle at every flip.
	onReconfig func(epoch uint64)

	// listener, when non-nil, receives message lifecycle events.
	listener trace.Listener

	// met, when non-nil, is the live-metrics instrumentation (metrics.go);
	// metEvery is its gauge-sampling period and onSample the optional
	// post-sample hook. Disabled instrumentation is one nil check per site.
	// metReg retains the registry behind met so snapshots can capture it.
	met      *engineMetrics
	metEvery int64
	metReg   *metrics.Registry
	onSample func(cycle int64)

	// spans, when non-nil, is the message-lifecycle span tracker (spans.go).
	// Like met, disabled span instrumentation is one nil check per site.
	spans *engineSpans

	// total counts every lifecycle event since the run began, by kind (record;
	// not just in-window). The six the accessors read are durable, kept by a
	// snapshot: generated, delivered, deadlock recoveries, fault kills
	// (aborted) and their outcomes, retried and dropped (aborted == retried +
	// dropped-at-abort; drops also happen at injection for unreachable
	// destinations). The other kinds restart at a restore and nothing reads
	// them; a throttle is recorded only while an observer is attached.
	total [trace.NumKinds]int64

	// digest caches ConfigDigest(cfg) from its first use (configDigest).
	digest string
	// Scratch of the state walks, nil until first used, touched only by their
	// caller's goroutine: reach is held's, waitGraph BuildWaitGraph's,
	// circuit, vcFree and useful VerifyInjectionProperty's, loadObjs, loadHits
	// and loadAt are load's tables.
	reach     heldScratch
	waitGraph *deadlock.WaitGraph
	circuit   *core.Circuit
	vcFree    []core.Signal
	useful    []core.Signal
	loadObjs  []*message.Message
	loadHits  []int32
	loadAt    []int32
}

// New builds a simulation engine from cfg. It validates the configuration
// and pre-allocates all routers, channels and statistics state — including
// contiguous arenas for the per-virtual-channel hot state — and reads the
// packed candidate table of its network from the shape cache.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sh := shapeOf(&cfg)
	if n := sh.cand.idBound(!cfg.Faults.Empty(), sh.topo.Nodes()) - 1; n > maxSetID {
		return nil, fmt.Errorf("sim: %d-ary %d-cube under %s routing has up to %d routing-candidate sets, more than the %d a 16-bit set id names",
			cfg.K, cfg.N, cfg.Routing, n, maxSetID)
	}
	topo := sh.topo
	alg := newAlgorithm(cfg.Routing, topo, cfg.VCs) // the engine's own: SetLiveness mutates it
	pattern, err := traffic.ByName(cfg.Pattern, topo)
	if err != nil {
		return nil, err
	}

	// A deadlock-free routing engine needs no detection; running the
	// FC3D-style criterion anyway would only produce false positives (it
	// presumes deadlock from sustained blockage, which plain congestion can
	// cause too). Faults void deadlock-freedom guarantees (an escape path
	// may die), so with a fault schedule detection stays on regardless.
	threshold := cfg.DetectionThreshold
	if alg.DeadlockFree() && cfg.Faults.Empty() {
		threshold = 0
	}
	e := &Engine{
		cfg:     cfg,
		topo:    topo,
		alg:     alg,
		shape:   sh,
		cand:    sh.cand,
		det:     deadlock.NewDetector(threshold),
		col:     stats.NewCollector(topo.Nodes(), cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles),
		numPhys: topo.NumPorts(),
		nVC:     topo.NumPorts() * cfg.VCs,
		built:   make(map[message.ID]*message.Message),
		replay:  cfg.Faults.Empty() && cfg.Sources == nil,
	}
	if !cfg.Faults.Empty() {
		e.live = topology.NewLiveness(topo)
		e.faultEvents = cfg.Faults.Events()
		fa, ok := alg.(routing.FaultAware)
		if !ok {
			return nil, fmt.Errorf("sim: routing %q is not fault-aware", cfg.Routing)
		}
		fa.SetLiveness(e.live)
	}
	nNodes := topo.Nodes()
	nVC := e.nVC
	e.nodes = make([]node, nNodes)
	// Adversarial overlay: fix rogue placement up front (seeded shuffle) and
	// split the collector's accounting by class, so results separate the
	// well-behaved population from the attackers.
	var rogueMask []bool
	if cfg.Adversary.Enabled() {
		rogueMask = cfg.Adversary.pickRogues(nNodes)
		classOf := make([]uint8, nNodes)
		for n, r := range rogueMask {
			if r {
				classOf[n] = ClassRogue
			}
		}
		e.col.EnableClasses([]string{"good", "rogue"}, classOf)
	}
	numOut := e.numPhys + cfg.EjChannels

	nAgents := e.agentCount()
	e.xbarMask = make([]uint64, nAgents)
	for a := range e.xbarMask {
		e.xbarMask[a] = 1 << uint(a)
		if a < nVC {
			e.xbarMask[a] = (1<<uint(cfg.VCs) - 1) << uint(a-a%cfg.VCs)
		}
	}

	// The channel arenas (input VCs are run-length buffers, so no flit
	// storage behind them); reset fills them.
	e.in = make([]inVC, nNodes*nVC)
	e.routes = make([]routeInfo, nNodes*nVC)
	e.lastTx = make([]int64, nNodes*nVC)
	e.inj = make([]injChannel, nNodes*cfg.InjChannels)
	e.ej = make([]ejChannel, nNodes*cfg.EjChannels)
	e.want = make([]uint8, nNodes*(nVC+cfg.EjChannels))
	e.nbr = make([]topology.NodeID, nNodes*e.numPhys)
	for i := range e.nbr {
		e.nbr[i] = topo.Neighbor(topology.NodeID(i/e.numPhys), topology.Port(i%e.numPhys))
	}
	e.outArb = make([]router.RoundRobin, nNodes*numOut)
	for i := range e.outArb {
		e.outArb[i].Init(nAgents)
	}
	e.empty = make([]uint64, nNodes)
	e.full = make([]uint64, nNodes)
	e.inMask = 1<<uint(nVC) - 1
	e.portsLow = e.inMask / (1<<uint(cfg.VCs) - 1) // numPhys all-ones fields over one
	// The rest of what a node owns, cut from engine-wide arrays the same way:
	// building a network allocates per engine, not per node.
	viewArena := make([]channelView, nNodes)
	blockedArena := make([]int32, nNodes*nVC)
	// The recovery lists, and the retry lists of a fault-capable engine, one
	// entry a node each: a node's first recovered or retried message takes a
	// slot, not an object. A longer list copies out on its own.
	lists := 1
	if e.live != nil {
		lists = 2
	}
	pendingArena := make([]pending, nNodes*lists)
	// The generators, by value: the steady Poisson or the bursty sources.
	var srcArena []traffic.Source
	var burstArena []traffic.BurstySource
	switch {
	case cfg.Sources != nil:
	case cfg.Burst.Enabled():
		burstArena = make([]traffic.BurstySource, nNodes)
	default:
		srcArena = make([]traffic.Source, nNodes)
	}
	limiters := cfg.Limiter(topo, cfg.VCs)
	if len(limiters) != nNodes {
		return nil, fmt.Errorf("sim: limiter factory built %d limiters for %d nodes", len(limiters), nNodes)
	}

	for i := 0; i < nNodes; i++ {
		nd := &e.nodes[i]
		nd.id = topology.NodeID(i)
		own := cut(pendingArena, i, lists)
		nd.recovery, nd.retry = own[:0:1], own[1:1]
		switch {
		case rogueMask != nil && rogueMask[i]:
			nd.rogue = true
			nd.src = traffic.NewRogueSource(nd.id, nNodes, cfg.Adversary.Hotspot,
				cfg.Adversary.RogueRate, cfg.MsgLen,
				cfg.Adversary.StormPeriod, cfg.Adversary.StormOn,
				cfg.Seed, splitSeed(cfg.Seed, uint64(i)))
		case cfg.Sources != nil:
			nd.src = cfg.Sources(nd.id)
			if nd.src == nil || nd.src.Node() != nd.id {
				return nil, fmt.Errorf("sim: Sources factory returned a bad generator for node %d", nd.id)
			}
		case cfg.Burst.Enabled():
			burstArena[i].Init(nd.id, pattern, cfg.Rate, cfg.MsgLen,
				cfg.Burst, cfg.Seed, splitSeed(cfg.Seed, uint64(i)))
			nd.src = &burstArena[i]
		default:
			srcArena[i].Init(nd.id, pattern, cfg.Rate, cfg.MsgLen,
				cfg.Seed, splitSeed(cfg.Seed, uint64(i)))
			nd.src = &srcArena[i]
		}
		nd.limiter = limiters[i]
		if nd.limiter == nil {
			return nil, fmt.Errorf("sim: limiter factory built no limiter for node %d", nd.id)
		}
		nd.limObs, _ = nd.limiter.(core.CycleObserver)
		nd.rules, nd.gated = nd.limiter.(core.Rules)
		viewArena[i] = channelView{e: e, nd: nd}
		nd.view = &viewArena[i]
		nd.blocked = deadlock.TrackerOver(cut(blockedArena, i, nVC))
	}
	shards := cfg.Workers
	if runtime.GOMAXPROCS(0) == 1 {
		shards = 1 // shards could only time-slice the one P; results are the same
	}
	e.par = newParRuntime(e, partition(nNodes, shards, alignNodes))
	e.reset() // the empty engine is defined once, there
	return e, nil
}

// cut returns the i-th run of n elements of arena, capped so that nothing can
// grow into the next one.
func cut[T any](arena []T, i, n int) []T { return arena[i*n : (i+1)*n : (i+1)*n] }

// A node's runs of the channel arenas (see Engine.in): its input VCs, their
// routes, and its output VCs' lastTx, indexed by agent; its injection and
// ejection channels; its want entries; and its output arbiters, physical
// ports then ejection channels. Its neighbours are nbr[id*numPhys+p].
func (e *Engine) inOf(id topology.NodeID) []inVC          { return cut(e.in, int(id), e.nVC) }
func (e *Engine) routesOf(id topology.NodeID) []routeInfo { return cut(e.routes, int(id), e.nVC) }
func (e *Engine) lastTxOf(id topology.NodeID) []int64     { return cut(e.lastTx, int(id), e.nVC) }
func (e *Engine) injOf(id topology.NodeID) []injChannel {
	return cut(e.inj, int(id), e.cfg.InjChannels)
}
func (e *Engine) ejOf(id topology.NodeID) []ejChannel { return cut(e.ej, int(id), e.cfg.EjChannels) }
func (e *Engine) wantOf(id topology.NodeID) []uint8 {
	return cut(e.want, int(id), e.nVC+e.cfg.EjChannels)
}
func (e *Engine) arbOf(id topology.NodeID) []router.RoundRobin {
	return cut(e.outArb, int(id), e.numPhys+e.cfg.EjChannels)
}

// ownerOf returns the message that owns output virtual channel out (p*VCs+v)
// of node id, nil while it is free: the message of the agent routed to it —
// an input VC's run (its buffer names the message from the header's arrival
// until the tail leaves, which clears the route) or an injection channel's.
func (e *Engine) ownerOf(id topology.NodeID, out int) *message.Message {
	a := int(e.wantOf(id)[out])
	switch {
	case a == noAgent:
		return nil
	case a < e.nVC:
		return e.in[int(id)*e.nVC+a].buf.Msg()
	}
	return e.inj[int(id)*e.cfg.InjChannels+a-e.nVC].msg
}

// downstream returns the index in in of the buffer a flit node id sends on
// output VC (p, v) lands in: the neighbour's VC v of the opposite port.
func (e *Engine) downstream(id topology.NodeID, p topology.Port, v int) int {
	return int(e.nbr[int(id)*e.numPhys+int(p)])*e.nVC + int(topology.Opposite(p))*e.cfg.VCs + v
}

// nextLoc returns the input virtual channel the route at loc claimed, the
// next location on the path of the message that holds loc, and false when
// there is none: no route, or one to an ejection channel. The route belongs
// to that message, because a virtual channel is allocated only while its
// buffer is empty and then holds one message's run until the tail leaves,
// which clears the route.
func (e *Engine) nextLoc(loc pathLoc) (pathLoc, bool) {
	r := e.routes[int(loc.Node)*e.nVC+e.inVCIndex(loc.Port, loc.VC)]
	if !r.valid || r.eject {
		return pathLoc{}, false
	}
	return e.landing(loc.Node, r.outPort, r.outVC), true
}

// landing is downstream as a location: the buffer a flit node id sends on
// output VC (p, v) lands in.
func (e *Engine) landing(id topology.NodeID, p topology.Port, v int8) pathLoc {
	return pathLoc{Node: e.nbr[int(id)*e.numPhys+int(p)], Port: topology.Opposite(p), VC: v}
}

// splitSeed derives a per-node stream seed from the run seed
// (SplitMix64-style mixing).
func splitSeed(seed, node uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(node+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// setOf returns the candidate-set id of message m's header at nd through its
// cache (an input VC's Note, injChannel.set), looking it up from m.Dst in the
// offset-class table only while the cache still holds 0.
func (e *Engine) setOf(nd *node, m *message.Message, set *uint16) int32 {
	if *set == 0 {
		*set = uint16(e.cand.id(nd.id, m.Dst))
	}
	return int32(*set)
}

// materialise turns r, popped from node src's queue (pop: r.next is its
// record's slot, -1 for a derived message), into its message and gives back
// what the pop left: the record's slot, or an emptied suffix's (settle). The
// message is the object a caller of Inject or an earlier injection attempt
// already built, or else one from the pool. This is where a generated message
// becomes an object. Serial contexts only.
func (e *Engine) materialise(src topology.NodeID, r queued) *message.Message {
	if r.next >= 0 {
		e.waiting.release(r.next)
	} else {
		e.settle(&e.nodes[src])
	}
	if m := e.object(r.id); m != nil {
		delete(e.built, r.id)
		return m
	}
	m := e.pooled()
	m.Reuse(r.id, src, r.dst, int(e.recordLen(&r)), r.gen)
	m.Measured = e.col.InWindow(r.gen)
	delete(e.lengths, r.id)
	return m
}

// object returns the object filed for the waiting message id, nil for a bare
// record. It only reads, so a shard section may call it; the length test
// keeps a run with no built record from hashing.
func (e *Engine) object(id message.ID) *message.Message {
	if len(e.built) == 0 {
		return nil
	}
	return e.built[id]
}

// recordLen returns the length of the message record r stands for: its
// object's, the one filed for it, or cfg.MsgLen. It only reads, like object.
func (e *Engine) recordLen(r *queued) int32 {
	if m := e.object(r.id); m != nil {
		return int32(m.Length)
	}
	if l, ok := e.lengths[r.id]; ok {
		return l
	}
	return int32(e.cfg.MsgLen)
}

// bareRecord returns the bare record of a message generated at cycle gen,
// filing its length if it is not cfg.MsgLen. Serial contexts only.
func (e *Engine) bareRecord(id message.ID, gen int64, dst topology.NodeID, length int32) queued {
	if length != int32(e.cfg.MsgLen) {
		if e.lengths == nil {
			e.lengths = make(map[message.ID]int32)
		}
		e.lengths[id] = length
	}
	return queued{id: id, gen: gen, dst: dst}
}

// pooled pops a free message, refilling an empty pool first. Serial
// contexts only.
func (e *Engine) pooled() *message.Message {
	if len(e.pool) == 0 {
		e.newSlab()
	}
	n := len(e.pool) - 1
	m := e.pool[n]
	e.pool[n] = nil
	e.pool = e.pool[:n]
	return m
}

// refillPool puts every message back on the free list: reset's, when nothing
// references any of them.
func (e *Engine) refillPool() {
	e.pool = e.pool[:0]
	for _, slab := range e.slabs {
		for i := range slab {
			e.pool = append(e.pool, &slab[i])
		}
	}
}

// newSlab refills the empty pool with one array of messages. The slab is sized
// from the network, so a four-node model does not own 64 messages it cannot
// use.
func (e *Engine) newSlab() {
	msgs := make([]message.Message, min(64, len(e.nodes)))
	for i := range msgs {
		e.pool = append(e.pool, &msgs[i])
	}
	if e.slabs == nil {
		e.slabs = make([][]message.Message, 0, 64) // grown once in a long run, not per slab
	}
	e.slabs = append(e.slabs, msgs)
}

// recordOf returns the queue record standing for the existing message m and
// files m where materialise will find it. Serial contexts only.
func (e *Engine) recordOf(m *message.Message) queued {
	e.built[m.ID] = m
	return queued{id: m.ID, gen: m.GenTime, dst: m.Dst}
}

// releaseMessage returns a finished (delivered or permanently dropped) message
// to the free list.
func (e *Engine) releaseMessage(m *message.Message) {
	e.pool = append(e.pool, m)
}

// Now returns the current simulation cycle.
func (e *Engine) Now() int64 { return e.now }

// Collector returns the run's metrics collector.
func (e *Engine) Collector() *stats.Collector { return e.col }

// Config returns the run's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Topology returns the run's torus.
func (e *Engine) Topology() *topology.Torus { return e.topo }

// InFlight returns the number of generated messages that are neither
// delivered nor dropped yet.
func (e *Engine) InFlight() int64 {
	return e.total[trace.KindGenerated] - e.total[trace.KindDelivered] - e.total[trace.KindDropped]
}

// Recovered returns the all-time count of deadlock recoveries.
func (e *Engine) Recovered() int64 { return e.total[trace.KindDeadlock] }

// Aborted returns the all-time count of messages killed by faults.
func (e *Engine) Aborted() int64 { return e.total[trace.KindAborted] }

// Retried returns the all-time count of scheduled source retries.
func (e *Engine) Retried() int64 { return e.total[trace.KindRetried] }

// Dropped returns the all-time count of permanently dropped messages.
func (e *Engine) Dropped() int64 { return e.total[trace.KindDropped] }

// Liveness returns the engine's channel/router liveness mask, or nil when
// fault injection is off.
func (e *Engine) Liveness() *topology.Liveness { return e.live }

// Delivered returns the all-time count of delivered messages.
func (e *Engine) Delivered() int64 { return e.total[trace.KindDelivered] }

// Generated returns the all-time count of generated messages.
func (e *Engine) Generated() int64 { return e.total[trace.KindGenerated] }

// Run executes the configured number of cycles and returns the summary.
// With metrics enabled, a final gauge sample runs after the last cycle so
// the exported series end on the run's exact final state.
func (e *Engine) Run() stats.Result {
	total := e.cfg.TotalCycles()
	for e.now < total {
		e.Step()
	}
	e.FlushMetrics()
	return e.col.Result()
}

// SetListener attaches a trace listener receiving message lifecycle events
// (generation, injection, delivery, deadlock, recovery, throttling). Pass
// nil to detach. Tracing costs one branch per event when detached.
func (e *Engine) SetListener(l trace.Listener) { e.listener = l }

// An event is one lifecycle event on its way to record: its kind, the
// message's id, endpoints and length, where it happened, and the message when
// it is an object (nil for a queue record, generated or throttled, and for a
// fault or repair, whose id is -1). fails names the paper's rules a throttled
// head failed (failA, failB), at a node of the ALO family only.
type event struct {
	kind         trace.Kind
	fails        uint8
	length       int32
	id           message.ID
	src, dst, at topology.NodeID
	m            *message.Message
}

// The rules a throttle record names as failed (event.fails): rule (a), some
// useful channel had no free virtual channel, and rule (b), no useful channel
// was completely free.
const (
	failA uint8 = 1 << iota
	failB
)

// eventOf is the event of kind that message object m meets at node at.
func eventOf(kind trace.Kind, m *message.Message, at topology.NodeID) event {
	return event{kind: kind, length: m.Length, id: m.ID, src: m.Src, dst: m.Dst, at: at, m: m}
}

// record is the one way a lifecycle event — a message's, or a fault's or
// repair's — reaches anything that counts or watches it: it bumps the kind's
// all-time total, then hands the event to the collector, the listener, the
// metrics registry and the span tracker, each that is attached. It runs only
// in serial contexts (a commit point, a teardown at one, fault application
// before a cycle, Inject), so every observer sees one stream in one order at
// any worker count. A message built by Inject counts and is collected as
// generated but emits no generation event: its caller made it.
func (e *Engine) record(ev event) {
	e.total[ev.kind]++
	switch ev.kind {
	case trace.KindGenerated:
		if measured := e.col.OnGenerated(e.now, int(ev.src)); ev.m != nil {
			ev.m.Measured = measured
		}
	case trace.KindInjected:
		e.col.OnInjected(int(ev.at), e.now)
	case trace.KindDelivered:
		m := ev.m
		e.col.OnDelivered(e.now, m.GenTime, m.InjectTime, int(m.Length), m.Measured, int(m.Src))
	case trace.KindDeadlock:
		e.col.OnDeadlock(e.now)
	case trace.KindFault:
		e.col.OnFault(e.now)
	case trace.KindAborted:
		e.col.OnAborted(e.now)
	case trace.KindRetried:
		e.col.OnRetried(e.now)
	case trace.KindDropped:
		e.col.OnDropped(e.now)
	}
	if e.listener != nil && (ev.kind != trace.KindGenerated || ev.m == nil) {
		e.listener.Emit(trace.Event{
			Cycle: e.now, Kind: ev.kind, Msg: int64(ev.id), Src: ev.src, Dst: ev.dst, Node: ev.at, Len: ev.length,
		})
	}
	if e.met != nil && ev.kind == trace.KindThrottled {
		e.met.denied.Inc()
		if ev.fails&failA != 0 {
			e.met.denyRuleA.Inc()
		}
		if ev.fails&failB != 0 {
			e.met.denyRuleB.Inc()
		}
	}
	if e.spans != nil {
		e.spanRecord(&ev)
	}
}

// StopSources turns off traffic generation for the rest of the run. The
// network then drains: with a deadlock-handling configuration every
// in-flight and queued message is eventually delivered, which tests and
// checkpoint-style workloads rely on.
func (e *Engine) StopSources() { e.sourcesStopped = true }

// Inject enqueues a message directly into src's source queue, bypassing the
// traffic source. It is the hook for hand-built scenarios (tests, examples)
// and the model checker's one action. The message is generated at the current
// cycle and participates in measurement like any other. It comes from the
// engine's pool, as generated traffic does, so the returned pointer is valid
// until the message is delivered or dropped, or the engine is restored: then
// the object is recycled for another message. Read what you need of it (ID,
// State, DeliverTime) before stepping past its delivery.
func (e *Engine) Inject(src, dst topology.NodeID, length int) *message.Message {
	if !e.topo.Valid(src) || !e.topo.Valid(dst) || length < 1 || length > router.MaxMessageLen {
		panic(fmt.Sprintf("sim: invalid message %d -> %d of %d flits (at most %d)", src, dst, length, router.MaxMessageLen))
	}
	if src == dst {
		panic("sim: self-addressed message")
	}
	nd := &e.nodes[src]
	m := e.pooled()
	m.Reuse(e.newID(nd), src, dst, length, e.now)
	e.record(eventOf(trace.KindGenerated, m, src)) // sets m.Measured
	if nd.sfx != 0 {
		e.spill(nd) // a record goes behind no derived message
	}
	e.waiting.push(&nd.queue, e.recordOf(m))
	return m
}

// newID draws the id of the next message generated at nd: its sequence
// number times the node count, plus its node. Ids are drawn at generation —
// by the traffic source, Inject — and a fault retry keeps its own.
func (e *Engine) newID(nd *node) message.ID {
	id := message.ID(nd.seq*int64(len(e.nodes)) + int64(nd.id))
	nd.seq++
	return id
}

// inVCIndex flattens (port, vc) into the node's agent index space.
func (e *Engine) inVCIndex(p topology.Port, vc int8) int {
	return int(p)*e.cfg.VCs + int(vc)
}

// injIndex returns the agent index of injection channel i.
func (e *Engine) injIndex(i int) int { return e.nVC + i }

// wantSlot returns the index among a node's want entries, and the output,
// that a valid route names.
func (e *Engine) wantSlot(r routeInfo) (slot, out int) {
	if r.eject {
		return e.nVC + int(r.ejCh), e.numPhys + int(r.ejCh)
	}
	return e.inVCIndex(r.outPort, r.outVC), int(r.outPort)
}

// setWant and clearWant keep the node's want entries and wantOut in step with
// the routes: every store of a valid route r for agent a, and every drop of
// one, calls them.
func (e *Engine) setWant(nd *node, a int, r routeInfo) {
	slot, o := e.wantSlot(r)
	e.wantOf(nd.id)[slot] = uint8(a)
	nd.wantOut |= 1 << uint(o)
}

func (e *Engine) clearWant(nd *node, r routeInfo) {
	slot, o := e.wantSlot(r)
	want := e.wantOf(nd.id)
	want[slot] = noAgent
	if !r.eject {
		for _, a := range want[o*e.cfg.VCs : (o+1)*e.cfg.VCs] {
			if a != noAgent {
				return
			}
		}
	}
	nd.wantOut &^= 1 << uint(o)
}

// derived is a node's derived words, all but the want entries, which derive
// writes in place.
type derived struct {
	free, empty, full, routed, wantOut uint64
	busyInj                            int
}

// derive computes every derived word of nd from its durable state — empty
// and full from the buffers, free (the output VCs no route claims), routed,
// want (into want) and wantOut from the routes, busyInj from the injection
// channels — and is the only code that does: rederive stores its result,
// CheckInvariants compares it with what is stored. ok is false when two agents
// are routed to one output channel, which neither want nor wantOut can hold.
func (e *Engine) derive(nd *node, want []uint8) (d derived, ok bool) {
	for i := range want {
		want[i] = noAgent
	}
	ok = true
	d.free = e.inMask
	route := func(a int, r routeInfo) { // r valid
		slot, o := e.wantSlot(r)
		ok = ok && want[slot] == noAgent
		want[slot] = uint8(a)
		d.wantOut |= 1 << uint(o)
		if !r.eject {
			d.free &^= 1 << uint(slot)
		}
	}
	routes := e.routesOf(nd.id)
	for a, ivc := range e.inOf(nd.id) {
		bit := uint64(1) << uint(a)
		if ivc.buf.Empty() {
			d.empty |= bit
		}
		if ivc.buf.Len() == e.cfg.BufDepth {
			d.full |= bit
		}
		if r := routes[a]; r.valid {
			d.routed |= bit
			route(a, r)
		}
	}
	for c, ic := range e.injOf(nd.id) {
		if ic.len != 0 {
			d.busyInj++
		}
		if ic.route.valid {
			route(e.injIndex(c), ic.route)
		}
	}
	return d, ok
}

// rederive makes derive's result nd's derived state, reporting derive's ok.
func (e *Engine) rederive(nd *node) bool {
	d, ok := e.derive(nd, e.wantOf(nd.id))
	nd.free, e.empty[nd.id], e.full[nd.id], nd.routed = d.free, d.empty, d.full, d.routed
	nd.wantOut, nd.busyInj = d.wantOut, d.busyInj
	return ok
}
