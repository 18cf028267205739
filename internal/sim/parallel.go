package sim

// The cycle schedule: deterministic sharded execution of the cycle engine.
//
// The node arena is partitioned into contiguous shards and every cycle runs
// as four fused sections, each ending in a commit point (a fifth commit
// point appears only on the rare cycles where a recovery or fault kill could
// fire — see the trigger pre-scan below). There is one copy of every phase,
// written as a range function over a shard; the engine built with Workers=1
// (or on a single-P host) is simply the one-shard case. One driver walks the
// schedule, cycleShard: one goroutine per shard with a barrier at each
// commit point, where one shard's barrier is its own arrival. Results are
// bit-identical for any partition. The scheme rests on three rules:
//
//  1. Own-node writes only. Inside a section a shard writes nothing but the
//     state of its own nodes. The one phase that naturally crosses shards —
//     flit movement into a neighbour's input buffer — applies pushes whose
//     destination is inside the shard directly (fused with the pop pass)
//     and routes the rest through a preallocated
//     single-producer/single-consumer ring per ordered shard pair: the
//     source shard fills its rings while popping, publishes each ring once
//     with a cycle-stamped atomic store, and the destination shard drains
//     the rings addressed to it, applying every push to its own nodes. At
//     most one push lands in any buffer per cycle (one upstream sender,
//     one grant per output port) and all the status-word and counter
//     updates it triggers are consumer-local, so pushes commute with each
//     other and with the consumer's own remaining pops — which is what
//     lets pass 1 and pass 2 of the move phase share a single section with
//     no barrier between them.
//
//  2. Section-stable cross-shard reads. The only remote state a section
//     reads — the downstream empty words during allocation, the downstream
//     full words during switch allocation, the liveness mask — is written
//     by no one during that section: Engine.empty and Engine.full are written only
//     by the move phase (and by teardowns, which run at a commit point),
//     the liveness mask only by the serial fault application before the
//     cycle starts. This is also why generation, injection, allocation and
//     switch allocation fuse into so few sections: none of them writes
//     anything another node's slice of the same section reads.
//
//  3. Serial commits at the commit points. Everything globally ordered —
//     message id assignment, the record arena and the message pool (so also
//     turning an admitted queue record into its object), collector hooks,
//     trace emission, drop accounting — is deferred into per-shard buffers
//     during the sections and committed once every shard has finished, by
//     the *last shard to arrive* at the barrier before it releases the
//     generation. The atomic arrival counter orders every shard's buffered
//     writes before the commit, and the generation release publishes the
//     commit to every waiter, so no dedicated commit barriers are needed.
//     Commits walk shards in ascending order; shards are contiguous
//     ascending node ranges, so the commit order is node order (move order
//     in the move phase) whatever the partition, and the event stream, the
//     RNG-independent counters and the message pool evolve identically.
//     Per-node RNG streams (splitSeed) make generation itself
//     partition-independent.
//
// Deadlock recovery and fault kills tear state out of arbitrary nodes, so
// they never run inside a section that several shards share. Each shard
// pre-scans its own nodes after injection for the two exact trigger
// conditions — a blockage counter at Threshold-1 (counters grow by at most
// one per cycle; see deadlock.BlockTracker.SetWatermark) or, on fault runs,
// an unrouted header whose candidate set faults have emptied (candidate
// sets depend only on the liveness mask, which is stable for the whole
// cycle) — and the allocation phase splits at the first flagged node: the
// prefix, where no trigger can fire, allocates per shard; the suffix runs
// the same allocation code over [cut, n) with its inline teardowns at a
// commit point of its own. With one shard the whole allocation phase is one
// goroutine walking [0, n) in node order, where the cut cannot matter, so
// the pre-scan and the watermark are armed only at two shards or more.
// Fault application itself stays serial before the cycle (it is rare and
// inherently global); the fault-retry promotion walk runs per shard with
// drops deferred.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wormnet/internal/core"
	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// genRec is one deferred traffic-generation event: the message is queued (id
// assignment, collector hook) at commit time, in node order. start is 1 + the
// index in parShard.starts of the stream position the node's generator polled
// from, on the first message of a poll that may start a derived suffix (0 on
// every other message): where that suffix begins (commitGenerate).
type genRec struct {
	node   topology.NodeID
	dst    topology.NodeID
	length int32
	start  int32
}

// deferredEvent is one globally-ordered side effect recorded during a
// section and committed at its commit point. A message the section took off
// node's source queue is rec, as pop returned it (m is nil): the commit builds
// the object. Every deferred drop is an unreachable destination's.
type deferredEvent struct {
	kind  uint8
	ch    int8  // evClaim: the injection channel
	fails uint8 // evThrottle: the rules the head failed (event.fails)
	node  topology.NodeID
	rec   queued
	m     *message.Message
}

const (
	evDrop      uint8 = iota // unreachable-destination drop (fault/inject phases)
	evRequeue                // fault retry rejoining the front of node's queue (fault phase)
	evThrottle               // limiter denial of node's queue head (inject phase, observed runs only)
	evClaim                  // queue record admitted to injection channel ch (inject phase)
	evInjected               // head flit entered the network (move phase)
	evDelivered              // tail flit consumed at destination (move phase)
)

// outFlit is one planned flit push: everything the destination shard needs to
// apply it without touching the source node.
type outFlit struct {
	at   int32           // the receiving input VC's index in Engine.in
	node topology.NodeID // the receiving node
	bit  uint64          // the VC's bit in that node's status words
	flit message.Flit
}

// pushRing is the single-producer/single-consumer channel for the planned
// flit pushes of one ordered shard pair. buf is sized at construction to
// the number of physical channels crossing from the source shard into the
// destination shard — the exact per-cycle maximum (one grant per output
// port) — so the steady state allocates nothing. The producer writes
// records plainly and publishes the whole batch with one atomic store of
// the cycle stamp and count; rings are published every cycle (count 0
// included), so the consumer's cycle-stamp check distinguishes this
// cycle's batch from last cycle's without any reset traffic against the
// SPSC discipline. seen is consumer-owned: the stamp it last drained.
type pushRing struct {
	buf  []outFlit
	seen uint64
	pub  atomic.Uint64 // (uint32(cycle)+1)<<32 | count
	_    [3]uint64     // pad: neighbouring rings' pub words off this line
}

// parShard is one shard: a contiguous slice of the network plus its private
// scratch and deferral buffers.
type parShard struct {
	lo, hi   int    // node range [lo, hi)
	localGen uint32 // barriers passed so far

	genScratch   []traffic.Generated
	starts       []traffic.Cursor // genRec.start
	gen          []genRec
	events       []deferredEvent
	moves        []move
	retryScratch []*message.Message

	ringN   []int32 // per-destination-shard fill count of this cycle's rings
	outDsts []int32 // destination shards reachable from this one (ring exists)
	inSrcs  []int32 // source shards with a ring into this one

	// allocCut is this shard's trigger pre-scan result: the first own node
	// at which a recovery or fault kill could fire this cycle, or
	// len(nodes) when none can (see injectRange).
	allocCut int32

	// Sampled-cycle scratch, shard-private: clk times the cycle's phases,
	// busyNS is their total up to the B4 arrival (the cycle minus barrier
	// waits; written before that arrival, read by the coordinator after
	// it), ringMax the sampled cycle's push-ring batch high watermark,
	// ringPushes the running cross-shard push total (accumulated whenever
	// metrics are on).
	clk        cycleClock
	busyNS     int64
	ringMax    int32
	ringPushes int64

	_ [64]byte // pad: adjacent shards' hot fields on separate cache lines
}

// The five timed phases of a cycle (engineMetrics.phase, cycleClock.ns).
const (
	phGenerate = iota
	phInject
	phRoute
	phSwitch
	phMove
	numPhases
)

// cycleClock attributes a goroutine's time within one sampled cycle to the
// phase it was spent in: lap charges the time since the previous mark to a
// phase, and sync steps the mark over barrier waits, so the phases sum to the
// goroutine's busy time. A commit is charged to the phase it ends, on
// whichever goroutine runs it. Off (unsampled cycles) it reads no clock.
type cycleClock struct {
	on   bool
	mark time.Time
	ns   [numPhases]int64
}

func (c *cycleClock) begin(on bool) {
	*c = cycleClock{on: on}
	if on {
		c.mark = time.Now()
	}
}

func (c *cycleClock) lap(ph int) {
	if c.on {
		now := time.Now()
		c.ns[ph] += now.Sub(c.mark).Nanoseconds()
		c.mark = now
	}
}

func (c *cycleClock) busy() (ns int64) {
	for _, v := range c.ns {
		ns += v
	}
	return ns
}

// await returns once w holds want: the one way a goroutine of the pool waits
// for another. It spins for spin loads of w, then calls runtime.Gosched
// between loads, and after yieldsBeforePark of those parks on s. Barrier
// waiters pass no slot and never park: the wait is bounded by a section.
//
// The park pairs with workerSlot.signal: the waiter stores parked, loads w
// again and only then blocks; the signaller stores w and only then loads
// parked. sync/atomic is sequentially consistent, so one of the two loads
// sees the other side's store and no wake-up is lost; a token sent to a waiter
// that did not block costs the next park one more turn of the loop, since w,
// re-read after every receive, is what says a cycle is due.
func await(w *atomic.Uint32, want uint32, spin int32, s *workerSlot) {
	for i := int32(0); w.Load() != want; i++ {
		switch {
		case i < spin:
		case s == nil || i < spin+yieldsBeforePark:
			runtime.Gosched()
		default:
			s.parked.Store(true)
			if w.Load() != want {
				<-s.wake
			}
			s.parked.Store(false)
		}
	}
}

// workerSlot is the between-cycles hand-off to one non-coordinator worker:
// cycle counts the cycles Step has started (plus one from Close, to deliver
// p.closed); parked and wake are where the worker sleeps once nobody steps.
type workerSlot struct {
	cycle  atomic.Uint32
	parked atomic.Bool
	wake   chan struct{} // one slot: a token is "look at cycle again"
	_      [48]byte      // pad: neighbouring slots' cycle words off this line
}

// signal starts the worker's next cycle, waking it only if it has parked (a
// full channel already holds the wake-up).
func (s *workerSlot) signal() {
	s.cycle.Add(1)
	if s.parked.Load() {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// phaseBarrier is a reusable centralized barrier, split into arrival and
// release so the last arriver can run the cycle's serial commits between
// the two (see sync). Waiters await the generation word (spin: barrierSpin).
type phaseBarrier struct {
	n     int32
	spin  int32
	_     [56]byte // count and gen each on their own cache line
	count atomic.Int32
	_     [60]byte
	gen   atomic.Uint32
}

// arrive reports whether the caller is the last of the n participants to
// reach the barrier. The last arriver must call release(target) — after
// performing any serial commit work — and everyone else wait(target),
// where target is the caller's barriers-passed count plus one. The only
// participant of a one-shard barrier is always last, without an atomic.
func (b *phaseBarrier) arrive() bool { return b.n == 1 || b.count.Add(1) == b.n }

// release opens barrier generation target, publishing every write the
// releaser made (the atomic store orders before the waiters' loads).
func (b *phaseBarrier) release(target uint32) {
	if b.n > 1 {
		b.count.Store(0)
	}
	b.gen.Store(target)
}

// wait blocks until generation target is released. gen cannot pass target
// while this caller waits (the next barrier needs its arrival), so the
// equality test is safe, including across uint32 wraparound.
func (b *phaseBarrier) wait(target uint32) { await(&b.gen, target, b.spin, nil) }

// The wait budgets, from the sweeps in EXPERIMENTS.md ("What waking a worker
// costs"): loads spun before the first yield with a P per shard and with more
// shards than Ps, and yields (~0.1 ms) between cycles before a worker parks.
const (
	spinPerP           = 2000
	spinOversubscribed = 32
	yieldsBeforePark   = 1024
)

// barrierSpin picks the spin budget for s shards on the current GOMAXPROCS:
// on one P a spinning waiter only delays the shard it waits for, so yield at
// once; with more shards than Ps some shard is always descheduled, so spin
// barely; with a P per shard a yield costs more than the rest of a section.
func barrierSpin(s int) int32 {
	procs := runtime.GOMAXPROCS(0)
	switch {
	case procs <= 1:
		return 0
	case s > procs:
		return spinOversubscribed
	default:
		return spinPerP
	}
}

// parRuntime is the sharded runtime of one engine: the shard partition, the
// push rings and, with two shards or more, the worker pool. Every engine
// has one; Workers=1 builds a single shard.
type parRuntime struct {
	shards  []parShard
	shardOf []int32 // node -> shard index
	// rings[src*len(shards)+dst] is the SPSC push ring from shard src to
	// shard dst; pairs no physical channel crosses have a nil buf and are
	// skipped by both sides (outDsts/inSrcs index the live ones).
	rings []pushRing
	bar   phaseBarrier
	// workers[i] is shard i+1's slot; exited counts the workers out, and
	// closed, written by Close before its signal, ends the one that reads it.
	workers []workerSlot
	exited  sync.WaitGroup
	closed  bool

	// sampled mirrors the coordinator's metricsSampled decision for the
	// current cycle: latched in Step before the workers are signalled (the
	// stamp's atomic add orders the write), it tells every shard whether to
	// run its cycleClock this cycle.
	sampled bool

	// allocCut, written by the B2 commit and read by every shard after it,
	// is the global minimum of the per-shard trigger pre-scans: allocation
	// runs per shard for nodes below it and at a commit point of its own
	// (where teardowns are safe) from it onward. len(nodes) on the — vastly
	// dominant — cycles where no trigger can fire, and always with one
	// shard.
	allocCut int32
	// watermarked records that the detector is armed with the Threshold-1
	// watermark (threshold >= 2, two shards or more), making
	// BlockTracker.Hot an exact one-cycle-ahead recovery predictor.
	watermarked bool
	// alwaysSerialAlloc forces allocCut to 0 for multi-shard configurations
	// whose detection threshold is too low for the watermark gate (< 2).
	alwaysSerialAlloc bool
}

// alignNodes is the shard-boundary alignment quantum: boundaries are rounded
// so every shard's slice of Engine.empty and Engine.full (one uint64 per node)
// starts on its own 64-byte cache line, eliminating false sharing between
// adjacent shards' hottest writes.
const alignNodes = 8

// partition splits n nodes into at most shards contiguous non-empty ranges
// and returns their boundaries: range i is [b[i], b[i+1]), b[0] = 0 and the
// last entry is n. Interior boundaries are rounded to multiples of alignUnit
// (plain i*n/s split when n is too small to keep every range non-empty after
// rounding).
func partition(n, shards, alignUnit int) []int {
	s := max(1, min(shards, n))
	b := make([]int, s+1)
	aligned := true
	for i := 1; i < s; i++ {
		b[i] = min((i*n/s+alignUnit/2)/alignUnit*alignUnit, n)
		aligned = aligned && b[i] > b[i-1]
	}
	b[s] = n
	if !aligned || b[s-1] >= n {
		for i := 1; i < s; i++ {
			b[i] = i * n / s
		}
	}
	return b
}

// newParRuntime builds the runtime for the shard boundaries bounds (see
// partition) and, with two shards or more, starts the worker goroutines —
// on any host: New is what keeps a single P to one shard. The spin budget is
// latched here, once.
func newParRuntime(e *Engine, bounds []int) *parRuntime {
	n := len(e.nodes)
	s := len(bounds) - 1
	p := &parRuntime{
		shards:  make([]parShard, s),
		shardOf: make([]int32, n),
		rings:   make([]pushRing, s*s),
	}
	p.bar.n = int32(s)
	p.bar.spin = barrierSpin(s)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.lo, sh.hi = bounds[i], bounds[i+1]
		sh.ringN = make([]int32, s)
		sh.allocCut = int32(n)
		for j := sh.lo; j < sh.hi; j++ {
			p.shardOf[j] = int32(i)
		}
	}
	// Ring capacities: the number of physical channels from shard src into
	// shard dst bounds the pushes src can plan against dst per cycle (one
	// grant per output port), so buf never reallocates.
	caps := make([]int32, s*s)
	for i, nb := range e.nbr {
		caps[int(p.shardOf[i/e.numPhys])*s+int(p.shardOf[nb])]++
	}
	for src := 0; src < s; src++ {
		sh := &p.shards[src]
		for dst := 0; dst < s; dst++ {
			c := caps[src*s+dst]
			if src == dst || c == 0 {
				continue
			}
			p.rings[src*s+dst].buf = make([]outFlit, c)
			sh.outDsts = append(sh.outDsts, int32(dst))
			p.shards[dst].inSrcs = append(p.shards[dst].inSrcs, int32(src))
		}
	}
	if s == 1 { // one shard never consults the allocation cut, nor waits
		return p
	}
	p.alwaysSerialAlloc = e.det.Enabled() && e.det.Threshold < 2
	p.watermarked = e.det.Enabled() && e.det.Threshold >= 2
	if p.watermarked {
		for i := range e.nodes {
			e.nodes[i].blocked.SetWatermark(e.det.Threshold - 1)
		}
	}
	p.workers = make([]workerSlot, s-1)
	p.exited.Add(s - 1)
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
		go e.parWorker(p, i+1)
	}
	return p
}

// Close stops the engine's worker goroutines, returning once every one has
// exited, and re-partitions to one shard (a no-op on an engine that already
// has one). The engine stays usable afterwards: the state between cycles does
// not depend on the partition, so further Steps continue the same run.
func (e *Engine) Close() {
	old := e.par
	if len(old.shards) == 1 {
		return
	}
	old.closed = true
	for i := range old.workers {
		old.workers[i].signal()
	}
	old.exited.Wait()
	e.par = newParRuntime(e, []int{0, len(e.nodes)})
	for i := range old.shards { // the mirrored all-time total stays monotone
		e.par.shards[0].ringPushes += old.shards[i].ringPushes
	}
}

// parWorker is the body of one non-coordinator worker: run the shard's
// slice of each cycle Step stamps, exit at the stamp Close sends. The runtime
// is passed in: New has not assigned e.par yet when the workers start.
func (e *Engine) parWorker(p *parRuntime, id int) {
	defer p.exited.Done()
	s := &p.workers[id-1]
	for next := uint32(1); ; next++ {
		await(&s.cycle, next, p.bar.spin, s)
		if p.closed {
			return
		}
		e.cycleShard(p, id)
	}
}

// recordCycle is Step's metrics tail: the moved-flit total every cycle and,
// on a sampled cycle that began at t0, the whole-cycle and per-phase timers
// (the coordinator's clock, shard 0's), the sync profile and the gauge
// sample. It runs on the coordinator after the cycle's last commit point, so
// every shard's writes are visible.
func (e *Engine) recordCycle(p *parRuntime, t0 time.Time) {
	m := e.met
	// The shards' move plans survive until next cycle's reslice.
	var flits int64
	for i := range p.shards {
		flits += int64(len(p.shards[i].moves))
	}
	m.flits.Add(flits)
	if !p.sampled {
		return
	}
	m.cycleTime.Observe(float64(time.Since(t0).Nanoseconds()))
	for ph, ns := range p.shards[0].clk.ns {
		m.phase[ph].Observe(float64(ns))
	}
	m.flitsSampled.SetInt(flits)
	// Sync profile: the push-ring batch high watermark, the mirrored
	// cross-shard push total and, with two shards or more (one has nothing
	// to balance), per-shard busy time and its imbalance.
	var pushes int64
	var hw int32
	for i := range p.shards {
		sh := &p.shards[i]
		pushes += sh.ringPushes
		if sh.ringMax > hw {
			hw = sh.ringMax
		}
		sh.ringMax = 0
	}
	m.ringHW.SetInt(int64(hw))
	m.ringPushes.Set(pushes)
	if len(p.shards) > 1 {
		minB, maxB := int64(-1), int64(0)
		for i := range p.shards {
			b := p.shards[i].busyNS
			m.shardBusy.Observe(float64(b))
			if minB < 0 || b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		if maxB > 0 {
			m.shardImbalance.Set(float64(maxB-minB) / float64(maxB))
		}
	}
	e.sampleMetrics()
}

// The schedule, written once as the section and commit functions below and
// walked by cycleShard:
//
//	section 1  promoteRetriesRange, pollRange     B1   commitGenerate
//	section 2  injectRange (+ trigger pre-scan)   B2   commitInject
//	section 3  allocRange below the cut          (B2a  allocSuffix, trigger cycles only)
//	           switchRange                        B3   —
//	section 4  moveSourceRange, moveDrainRings    B4   commitEvents
//
// Allocation of disjoint nodes commutes (own-node writes; the downstream
// empty words are move-phase state), and switch allocation reads only its
// own nodes' routes/status plus downstream full words, none of which
// allocation writes — so on trigger-free cycles section 3 needs no commit
// point inside it. B3 exists because movement writes the empty/full words
// the switch phase reads. In section 4 pushes commute (at most one per
// buffer per cycle, all effects consumer-local), so no commit point
// separates the passes; the rings' cycle stamps make each consumer wait
// exactly for its producers.

// cycleShard is the cycle driver: one shard's slice of a cycle, with a
// barrier at each commit point. The commit runs at barrier arrival —
// whichever shard arrives last executes it before releasing the generation
// (commits walk all shards in ascending order, so the executor's identity
// is irrelevant to the result). A one-shard engine runs it on the caller
// alone: every arrival is the last, and the barrier generation still ticks
// once per commit point, so the synchronisation budget stays observable.
func (e *Engine) cycleShard(p *parRuntime, id int) {
	sh := &p.shards[id]
	sh.clk.begin(p.sampled)

	e.generateRange(sh)
	e.sync(p, sh, 0, phGenerate, (*Engine).commitGenerate)

	e.injectRange(p, sh)
	e.sync(p, sh, 1, phInject, (*Engine).commitInject)

	if cut := int(p.allocCut); cut < len(e.nodes) {
		e.allocRange(sh.lo, min(sh.hi, cut))
		e.sync(p, sh, 1, phRoute, (*Engine).allocSuffix)
	} else {
		e.allocRange(sh.lo, sh.hi)
		sh.clk.lap(phRoute)
	}
	sh.moves = e.switchRange(sh.lo, sh.hi, sh.moves[:0])
	e.sync(p, sh, 2, phSwitch, nil)

	e.moveSourceRange(p, sh, id)
	e.moveDrainRings(p, sh, id)
	// Written before the B4 arrival, so the atomic arrival counter (and the
	// generation release behind it) orders this store before the
	// coordinator's post-cycle read.
	sh.clk.lap(phMove)
	sh.busyNS = sh.clk.busy()
	e.sync(p, sh, 3, phMove, (*Engine).commitEvents)
}

// sync ends a section of the cycle driver at barrier b (0..3 = B1..B4;
// B2a shares B2's slot): the last shard to arrive runs commit and releases
// the rest, everyone else waits. On sampled cycles the section's time —
// the commit included, for the shard that ran it — is charged to phase ph
// and a waiter's wait to barrier b's histogram, never to a phase.
func (e *Engine) sync(p *parRuntime, sh *parShard, b, ph int, commit func(*Engine, *parRuntime)) {
	sh.localGen++
	if p.bar.arrive() {
		if commit != nil {
			commit(e, p)
		}
		p.bar.release(sh.localGen)
		sh.clk.lap(ph)
		return
	}
	sh.clk.lap(ph)
	p.bar.wait(sh.localGen)
	if sh.clk.on {
		now := time.Now()
		e.met.barrierWait[b].Observe(float64(now.Sub(sh.clk.mark).Nanoseconds()))
		sh.clk.mark = now
	}
}

// generateRange is section 1 over one shard: fault-retry promotion (fault
// runs; drops deferred), then traffic-generation polling (per-node RNG
// streams; creation deferred).
func (e *Engine) generateRange(sh *parShard) {
	if e.live != nil {
		e.promoteRetriesRange(sh)
	}
	if !e.sourcesStopped {
		e.pollRange(sh)
	}
}

// promoteRetriesRange moves the shard's fault retries whose backoff expired
// to the front of their source queues (oldest first — retried traffic keeps
// the paper's pending-before-new priority). Retries whose destination died
// while they waited are dropped. Both are deferred to the next commit: drops
// are globally-ordered accounting and the queues' arena is engine-global.
func (e *Engine) promoteRetriesRange(sh *parShard) {
	for i := sh.lo; i < sh.hi; i++ {
		nd := &e.nodes[i]
		if len(nd.retry) == 0 {
			continue
		}
		ready := sh.retryScratch[:0]
		rest := nd.retry[:0]
		for _, pr := range nd.retry {
			switch {
			case pr.readyAt > e.now:
				rest = append(rest, pr)
			case !e.live.RouterAlive(pr.msg.Dst):
				sh.events = append(sh.events, deferredEvent{
					kind: evDrop, node: nd.id, m: pr.msg,
				})
			default:
				ready = append(ready, pr.msg)
			}
		}
		nd.retry = rest
		// Each requeue lands in front of the one before it.
		for j := len(ready) - 1; j >= 0; j-- {
			sh.events = append(sh.events, deferredEvent{kind: evRequeue, node: nd.id, m: ready[j]})
		}
		sh.retryScratch = ready[:0]
	}
}

// pollRange is the per-shard half of generation: drain each source's due
// events into the shard's buffer, skipping nodes whose source cannot fire yet
// (cached NextAt) without touching the source. Queueing waits for the
// commit — ids, the record arena and the collector are global.
func (e *Engine) pollRange(sh *parShard) {
	for i := sh.lo; i < sh.hi; i++ {
		nd := &e.nodes[i]
		if e.now < nd.nextGen {
			continue // Poll is guaranteed a no-op before nextGen
		}
		if e.live != nil && !e.live.RouterAlive(nd.id) {
			continue // a dead router generates nothing
		}
		start := int32(0)
		if e.replay && nd.sfx == 0 && nd.queue.n >= deriveAfter-1 {
			if sh.starts == nil {
				sh.starts = make([]traffic.Cursor, 0, 16)
			}
			sh.starts = append(sh.starts, traffic.Cursor{})
			start = int32(len(sh.starts))
			nd.replayer().SaveCursor(&sh.starts[start-1])
		}
		sh.genScratch = nd.src.Poll(e.now, sh.genScratch[:0])
		nd.nextGen = nd.src.NextAt()
		if start != 0 && len(sh.genScratch) == 0 {
			sh.starts = sh.starts[:start-1]
		}
		for _, g := range sh.genScratch {
			sh.gen = append(sh.gen, genRec{node: nd.id, dst: g.Dst, length: int32(g.Length), start: start})
			start = 0
		}
	}
}

// deriveAfter is how many messages must wait at a node before a message its
// generator draws is derived rather than a record. A suffix's slot is 88
// bytes and a record 24, and at the knee and below nearly every queue is
// empty or one or two deep, so a short queue is records and only a backlog
// derives.
const deriveAfter = 2

// commitGenerate is the B1 commit: the deferred retry drops and requeues,
// then the polled messages, queued in node order: a generated message gets its
// id here and its object when a channel admits it. On a run that replays its
// sources a message is derived when its node has a suffix, or when
// deriveAfter messages wait ahead of it and its poll saved a start: then it is
// the head of a new suffix, started from that position past the poll's
// messages queued ahead of it. Every other message is a record.
func (e *Engine) commitGenerate(p *parRuntime) {
	e.commitEvents(p)
	for si := range p.shards {
		sh := &p.shards[si]
		var start *traffic.Cursor // of the poll being queued, nil if none saved
		skip := 0                 // its messages queued ahead as records
		for i := range sh.gen {
			g := &sh.gen[i]
			if i == 0 || g.node != sh.gen[i-1].node {
				start, skip = nil, 0
				if g.start != 0 {
					start = &sh.starts[g.start-1]
				}
			}
			nd := &e.nodes[g.node]
			id := e.newID(nd)
			e.record(event{kind: trace.KindGenerated, length: g.length, id: id, src: g.node, dst: g.dst, at: g.node})
			switch {
			case nd.sfx != 0:
				e.suffixOf(nd).n++
				nd.queue.n++
			case start == nil || nd.queue.n < deriveAfter:
				e.waiting.push(&nd.queue, e.bareRecord(id, e.now, g.dst, g.length))
				skip++
			default:
				e.startSuffix(nd, start, skip, id, g.dst)
			}
		}
		sh.gen = sh.gen[:0]
		sh.starts = sh.starts[:0]
	}
}

// commitInject is the B2 commit: the injection-phase events (they precede any
// allocation event in the stream) — the claims among them, so every busy
// channel has its message before allocation looks — then the global
// allocation cut, the minimum of the shards' pre-scans.
func (e *Engine) commitInject(p *parRuntime) {
	e.commitEvents(p)
	cut := int32(len(e.nodes))
	if p.alwaysSerialAlloc {
		cut = 0
	}
	for i := range p.shards {
		cut = min(cut, p.shards[i].allocCut)
	}
	p.allocCut = cut
}

// allocSuffix is the B2a commit of a trigger cycle: allocation from the cut
// onward, where recoveries and fault kills fire with their cross-shard
// teardowns, on one goroutine while every other shard waits.
func (e *Engine) allocSuffix(p *parRuntime) {
	e.allocRange(int(p.allocCut), len(e.nodes))
}

// injectRange is the injection phase over the shard's nodes, with the
// trigger pre-scan for the allocation split fused into the same walk. On
// fault runs it first sheds head-of-line messages whose destination router
// died: they can never be delivered, and letting them enter would only
// wedge traffic near the failure. Drops, throttle records and the objects of
// admitted records are deferred (their accounting, the pool and the arena's
// free list are global); the queue and recovery-list pops themselves happen
// inline.
//
// The fused pre-scan (two shards or more) records in sh.allocCut the first own node at which
// the upcoming allocation phase could fire a recovery or a fault kill (or
// len(nodes) when none can). Both predicates are exact one-cycle-ahead
// predictions, and both are per-node over state that later nodes'
// injections cannot touch — which is what makes evaluating node i right
// after node i's own injections equal to a separate post-injection sweep:
//
//   - Recovery fires only where a blockage counter reaches Threshold, and
//     counters grow by at most one per cycle, so only nodes with a counter
//     already at Threshold-1 — watermark-tracked by BlockTracker.Hot —
//     qualify. A hot counter implies a still-blocked header, so nodes with
//     no occupied VC skip the check.
//
//   - A fault kill fires only for an unrouted header whose candidate set is
//     empty. Candidate sets depend solely on (node, destination, liveness),
//     and the liveness mask is stable for the whole cycle, so scanning the
//     post-injection unrouted headers (their set only shrinks during
//     allocation; teardowns run after the cut) is exact.
//
// A node below the cut therefore allocates exactly as it would in one
// whole-network walk; conservative-only flagging (a flagged node need not
// actually fire) costs suffix width, never correctness.
func (e *Engine) injectRange(p *parRuntime, sh *parShard) {
	faults := e.live != nil
	scan := len(p.shards) > 1 && (p.watermarked || faults)
	cut := int32(len(e.nodes))
	for i := sh.lo; i < sh.hi; i++ {
		nd := &e.nodes[i]
		alive := true
		if faults {
			if !e.live.RouterAlive(nd.id) {
				alive = false // a dead router injects nothing
			} else {
				for len(nd.recovery) > 0 && nd.recovery[0].readyAt <= e.now &&
					!e.live.RouterAlive(nd.recovery[0].msg.Dst) {
					sh.events = append(sh.events, deferredEvent{
						kind: evDrop, node: nd.id, m: nd.popRecovery(),
					})
				}
				for !nd.queue.Empty() && !e.live.RouterAlive(e.front(nd).dst) {
					sh.events = append(sh.events, deferredEvent{kind: evDrop, node: nd.id, rec: e.pop(nd)})
				}
			}
		}
		// Nothing to tick and nothing to inject: skip. Limiters with a
		// per-cycle hook (DRIL's window counter) must tick every cycle, so
		// their nodes always inject.
		if alive && (nd.limObs != nil || !nd.queue.Empty() || len(nd.recovery) > 0) {
			e.injectNode(nd, sh)
		}
		// Pre-scan this node now that its injections are settled.
		if scan {
			occupied := e.empty[i] != e.inMask
			if (p.watermarked && occupied && nd.blocked.Hot() > 0) ||
				(faults && (occupied || nd.busyInj > 0) && e.deadEnd(nd)) {
				cut = int32(i)
				scan = false
			}
		}
	}
	sh.allocCut = cut
}

// injectNode runs one node's limiter tick, then assigns its free injection
// channels: recovered messages first (they bypass the limiter — draining
// them relieves the congestion that deadlocked them), then source-queue
// messages in FIFO order, each gated by the injection limiter. A denied
// queue head blocks the messages behind it, preserving the paper's
// "pending messages have higher priority than newer ones". A denial is
// deferred to the shard's event buffer as a throttle record when an observer
// will see it, and so is the object of an admitted record: the section fills
// the channel's counters (which is what makes it busy) and the B2 commit
// attaches the message. The span mark of either claim is exclusive to the
// shard: the message sits at an own node.
func (e *Engine) injectNode(nd *node, sh *parShard) {
	if nd.limObs != nil {
		nd.limObs.Tick(nd.view, e.now)
	}
	inj := e.injOf(nd.id)
	for c := range inj {
		ic := &inj[c]
		if ic.len != 0 {
			continue
		}
		var id message.ID
		if len(nd.recovery) > 0 && nd.recovery[0].readyAt <= e.now {
			m := nd.popRecovery()
			m.State = message.StateInjecting
			*ic = injChannel{msg: m, left: int32(m.Length), len: int32(m.Length)}
			id = m.ID
		} else {
			if nd.queue.Empty() {
				continue
			}
			// Rogue nodes (Config.Adversary) never consult the limiter:
			// bypassing it is the whole attack.
			if !nd.rogue {
				if ok, fails := e.admits(nd); !ok {
					// The commit reads the record's fields off the queue: a
					// denied head is still the front there.
					if e.listener != nil || e.met != nil || e.spans != nil {
						sh.events = append(sh.events, deferredEvent{kind: evThrottle, fails: fails, node: nd.id})
					}
					break // FIFO: do not bypass a throttled queue head
				}
			}
			set := nd.queue.set // the pop forgets it
			r := e.pop(nd)
			n := e.recordLen(&r)
			// The channel has no message until the commit: its set id is all a
			// fault pre-scan (deadEnd) can read of the header.
			if set == 0 {
				set = uint16(e.cand.id(nd.id, r.dst))
			}
			*ic = injChannel{left: n, len: n, set: set}
			sh.events = append(sh.events, deferredEvent{kind: evClaim, ch: int8(c), node: nd.id, rec: r})
			id = r.id
		}
		nd.busyInj++
		if e.spans != nil {
			e.spanHop(id, nd.id)
		}
	}
}

// admits is the injection gate: whether nd's limiter lets the head of its
// (non-empty) source queue in this cycle and, on a denial at a member of the
// ALO family (core.Rules), which of the paper's rules failed (failA, failB).
// Such a member is answered from the free word and the queue's cached set id —
// a denied head, decided again every cycle, reads nothing else; any other
// limiter from Allow over the ChannelView, with nothing to attribute.
func (e *Engine) admits(nd *node) (ok bool, fails uint8) {
	if !nd.gated {
		return nd.limiter.Allow(nd.view, e.front(nd).dst), 0
	}
	q := &nd.queue
	if q.set == 0 {
		q.set = uint16(e.cand.id(nd.id, e.front(nd).dst))
	}
	ok, ruleA, ruleB := e.gateWords(nd, int32(q.set))
	if !ruleA {
		fails |= failA
	}
	if !ruleB {
		fails |= failB
	}
	return ok, fails
}

// gateWords evaluates nd's ALO-family gate for a message whose candidate set
// at nd is set: the paper's Figure 3 on the status register itself.
func (e *Engine) gateWords(nd *node, set int32) (ok, ruleA, ruleB bool) {
	useful := e.portsLow
	if !nd.rules.AllPorts {
		useful = e.cand.useful[set]
	}
	ruleA, ruleB = core.RuleWords(nd.free, useful, e.cfg.VCs)
	return nd.rules.Admits(ruleA, ruleB), ruleA, ruleB
}

// popRecovery removes and returns the front of the node's recovery list. The
// list is a handful of entries at most; shifting it down keeps its backing
// array, where re-slicing past the front would give it up entry by entry and
// allocate again at the next refill.
func (nd *node) popRecovery() *message.Message {
	m := nd.recovery[0].msg
	n := copy(nd.recovery, nd.recovery[1:])
	nd.recovery[n] = pending{}
	nd.recovery = nd.recovery[:n]
	return m
}

// deadEnd reports whether any header that allocation will route at nd this
// cycle has an empty candidate set (fault runs only: minimal routing
// otherwise always yields candidates). Ejection-bound headers never kill —
// the destination router's liveness was already checked at injection.
// Injection channels are tested by len: the pre-scan runs inside the injection
// section, where a channel claimed this cycle has no msg yet, but its set id
// (the claim fills it; no epoch flips within the cycle). A header's set id
// comes through its cache, as in allocate, which then finds it there.
func (e *Engine) deadEnd(nd *node) bool {
	self := e.cand.self
	for h := e.inMask &^ e.empty[nd.id] &^ nd.routed; h != 0; h &= h - 1 {
		b := &e.inOf(nd.id)[bits.TrailingZeros64(h)].buf
		if id := e.setOf(nd, b.Msg(), &b.Note); id != self && e.cand.word[id] == 0 {
			return true
		}
	}
	if nd.busyInj > 0 {
		for c := range e.cfg.InjChannels {
			ic := &e.injOf(nd.id)[c]
			if ic.len == 0 || ic.route.valid || ic.left < ic.len {
				continue
			}
			if id := e.setOf(nd, ic.msg, &ic.set); id != self && e.cand.word[id] == 0 {
				return true
			}
		}
	}
	return false
}

// The credit condition for a forward move is that the receiving
// virtual-channel buffer (downstream(node, port, vc)) has a slot free at the
// start of the cycle: a one-cycle credit loop. Each buffer has a single
// upstream sender and one grant per output port, so the check is exact.

// moveSourceRange is pass 1 of the fused move phase: it applies the shard's
// planned flit transfers — pops from input buffers or injection channels,
// pushes into downstream buffers or ejection sinks — with all the
// bookkeeping that head and tail flits trigger (channel release, path
// tracking, status words); delivery/injection accounting is
// deferred. Pushes staying inside the shard touch only own-node state and
// commute with the shard's remaining pops (a push was planned against
// start-of-cycle credit, so it fits whether the destination buffer's own
// pop has run yet or not), so they apply directly, fused with the pop pass;
// pushes into another shard's nodes are recorded into the per-destination
// rings instead. Each ring is published exactly once, after the walk, so
// the destination shard sees the complete batch or nothing.
func (e *Engine) moveSourceRange(p *parRuntime, sh *parShard, id int) {
	// Hot engine state hoisted into locals (no callee below mutates any of
	// it), so the compiler need not reload the fields across calls.
	vcs := e.cfg.VCs
	nVC := e.nVC
	now := e.now
	empty, full := e.empty, e.full
	nShards := len(p.shards)
	lo, span := uint32(sh.lo), uint32(sh.hi-sh.lo) // a node outside is another shard's
	for _, mv := range sh.moves {
		nd := &e.nodes[mv.node]
		base := int(mv.node) * nVC
		var flit message.Flit

		if a := int(mv.agent); a < nVC {
			ivc := &e.in[base+a]
			flit = ivc.buf.Pop()
			bit := uint64(1) << uint(a)
			full[mv.node] &^= bit
			if ivc.buf.Empty() {
				empty[mv.node] |= bit
			}
			if flit.Tail {
				// The tail leaves: the message's path now starts where the
				// route leads (no buffer at all once it ejects).
				flit.Msg.Tail = message.NoLoc
				if !mv.eject {
					flit.Msg.Tail = e.landing(nd.id, mv.outPort, mv.outVC)
				}
				e.clearWant(nd, e.routes[base+a])
				e.routes[base+a] = routeInfo{}
				nd.routed &^= bit
				nd.blocked.Progress(a)
			}
		} else {
			// The flit is built from the channel's cached counters, and the
			// message's FlitsSent is settled when the tail leaves: body
			// flits never touch the (cold) message struct.
			ic := &e.inj[int(mv.node)*e.cfg.InjChannels+a-nVC]
			m := ic.msg
			seq := ic.len - ic.left
			flit = message.Flit{Msg: m, Seq: seq, Head: seq == 0, Tail: ic.left == 1}
			ic.left--
			if flit.Head && m.InjectTime < 0 {
				m.InjectTime = now
				sh.events = append(sh.events, deferredEvent{
					kind: evInjected, node: nd.id, m: m,
				})
			}
			if flit.Tail {
				m.FlitsSent = ic.len
				ic.msg = nil
				ic.len = 0
				e.clearWant(nd, ic.route)
				ic.route = routeInfo{}
				nd.busyInj--
				m.State = message.StateInNetwork
			}
		}

		m := flit.Msg
		if mv.eject {
			// Body flits charge the ejection channel's pending counter;
			// the message is debited once, when the tail arrives — so
			// consuming a flit touches only this hot little struct.
			ej := &e.ej[int(mv.node)*e.cfg.EjChannels+int(mv.ejCh)]
			if !flit.Tail {
				ej.pending++
				continue
			}
			m.FlitsEjected += ej.pending + 1
			ej.pending = 0
			ej.msg = nil
			m.State = message.StateDelivered
			m.DeliverTime = now
			sh.events = append(sh.events, deferredEvent{
				kind: evDelivered, node: nd.id, m: m,
			})
			continue
		}

		out := int(mv.outPort)*vcs + int(mv.outVC)
		e.lastTx[base+out] = now
		if flit.Tail { // its route went above, and the output VC with it
			nd.free |= 1 << uint(out)
		}
		// The landing buffer is the same VC of the opposite port at the neighbour.
		nb, land := e.nbr[int(mv.node)*e.numPhys+int(mv.outPort)], int(topology.Opposite(mv.outPort))*vcs+int(mv.outVC)
		rec := outFlit{at: int32(int(nb)*nVC + land), node: nb, bit: uint64(1) << uint(land), flit: flit}
		if uint32(rec.node)-lo >= span {
			d := p.shardOf[rec.node]
			p.rings[id*nShards+int(d)].buf[sh.ringN[d]] = rec
			sh.ringN[d]++
			continue
		}
		e.push(&rec)
	}
	// Publish every outbound ring — including empty ones, so consumers
	// never wait on a quiet producer. One release-store per ring per cycle.
	stamp := (uint64(uint32(now)) + 1) << 32
	met := e.met != nil
	for _, d := range sh.outDsts {
		r := &p.rings[id*nShards+int(d)]
		cnt := sh.ringN[d]
		r.pub.Store(stamp | uint64(uint32(cnt)))
		sh.ringN[d] = 0
		if met {
			sh.ringPushes += int64(cnt)
			if p.sampled && cnt > sh.ringMax {
				sh.ringMax = cnt
			}
		}
	}
}

// moveDrainRings is pass 2 of the fused move phase: apply every inbound
// ring's batch as it is published. Application order across source shards
// is irrelevant — each buffer receives at most one push per cycle and all
// updates are consumer-local — so rings drain opportunistically rather
// than in source order.
func (e *Engine) moveDrainRings(p *parRuntime, sh *parShard, id int) {
	nShards := len(p.shards)
	stampHi := uint64(uint32(e.now)) + 1
	pending := len(sh.inSrcs)
	for spins := int32(0); pending > 0; {
		progressed := false
		for _, s := range sh.inSrcs {
			r := &p.rings[int(s)*nShards+id]
			if r.seen>>32 == stampHi {
				continue // already drained this cycle
			}
			v := r.pub.Load()
			if v>>32 != stampHi {
				continue // producer not done yet
			}
			for i := range r.buf[:uint32(v)] {
				e.push(&r.buf[i])
			}
			r.seen = v
			pending--
			progressed = true
		}
		if pending > 0 && !progressed {
			if spins++; spins > p.bar.spin {
				runtime.Gosched()
			}
		}
	}
}

// push lands a planned flit in a buffer of its own shard, from the shard's own
// move walk or off a ring. All pops already happened or commute with it: a
// push was planned against start-of-cycle credit, so it fits whether the
// destination buffer's own pop (if any) has run or not, and the empty/full
// updates reach the same final state either way.
func (e *Engine) push(rec *outFlit) {
	dvc := &e.in[rec.at]
	if dvc.buf.Empty() {
		e.empty[rec.node] &^= rec.bit
	}
	if rec.flit.Head && e.spans != nil {
		// The hop-append is exclusive: this shard owns the receiving node,
		// the head arrives at most once per cycle, and a producer's
		// same-cycle record writes happened before the ring publish the
		// drain synchronized with.
		e.spanHop(rec.flit.Msg.ID, rec.node)
	}
	dvc.buf.Push(rec.flit)
	if dvc.buf.Len() == e.cfg.BufDepth {
		e.full[rec.node] |= rec.bit
	}
}

// commitEvents applies the deferred side effects of the last section in
// shard order — node order (fault and inject phases) or move order (move
// phase) whatever the partition. It is the whole of the B4 commit.
func (e *Engine) commitEvents(p *parRuntime) {
	for si := range p.shards {
		sh := &p.shards[si]
		for i := range sh.events {
			ev := &sh.events[i]
			nd := &e.nodes[ev.node]
			switch ev.kind {
			case evDrop:
				if ev.m == nil {
					ev.m = e.materialise(ev.node, ev.rec)
				}
				e.drop(ev.m, ev.node, message.DropUnreachable)
			case evRequeue:
				e.waiting.pushFront(&nd.queue, e.recordOf(ev.m)) // fault runs derive nothing
			case evThrottle:
				r := e.front(nd)
				e.record(event{kind: trace.KindThrottled, fails: ev.fails, length: e.recordLen(r),
					id: r.id, src: ev.node, dst: r.dst, at: ev.node})
			case evClaim:
				m := e.materialise(ev.node, ev.rec)
				m.State = message.StateInjecting
				e.injOf(ev.node)[ev.ch].msg = m
				if e.met != nil {
					e.met.admitted.Inc()
				}
			case evInjected:
				e.record(eventOf(trace.KindInjected, ev.m, ev.node))
			case evDelivered:
				e.record(eventOf(trace.KindDelivered, ev.m, ev.node))
				e.releaseMessage(ev.m)
			}
			ev.m = nil
		}
		sh.events = sh.events[:0]
	}
}
