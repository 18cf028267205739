package modelcheck

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// taskPops is how many entries a task expands before it hands its log over:
// short enough that the committer trails the workers by a few hundred states
// (and so stops them soon after the budget), long enough that the hand-over
// costs nothing next to the states.
const taskPops = 128

// recKind classifies a log record.
type recKind uint8

const (
	recExpanded recKind = iota // a pop whose edge records follow
	recTerminal                // a pop of a terminal state
	recHorizon                 // a pop of a state at the horizon
	recEdge                    // an edge to a state the worker had not seen
	recDup                     // an edge the worker pruned: committed, or seen earlier in its task
	recError                   // a fatal error at this point of the exploration
)

// probeOutcome is what the false-negative probe of a new state found.
type probeOutcome uint8

const (
	probeNone          probeOutcome = iota // not a deadlock state: no probe
	probeDetected                          // FC3D fired on a deadlocked message
	probeFalseNegative                     // FC3D stayed silent
	probeOracleUnsound                     // a deadlocked message was delivered first
)

// record is one line of a task's log: a pop, or one edge of the pop before it.
// A worker writes what the serial explorer would have written into the report;
// the committer replays it.
type record struct {
	kind   recKind
	probe  probeOutcome
	inject uint32 // edge: the catalog mask injected
	used   uint32 // edge: the child's injected catalog entries
	tp, fp int32  // edge: true- and false-positive recoveries on it
	// n is, for a pop, the number of records that follow for its edges; for a
	// new edge, the index of the child's pop record in the same log, or -1 when
	// the child became a task of its own.
	n    int32
	hash [32]byte
	link *sched   // pop: the popped state's schedule; new edge: the child's
	task *task    // new edge: the task the child's subtree was handed to
	fail *failure // new edge: failed checks; error record: the error
}

// failure is what a new state's checks found, for the committer to report.
type failure struct {
	violations []violation
	detail     string  // the probe's false-negative or oracle-unsound detail
	gt         []int64 // the state's ground truth, which a counterexample keeps
	err        error
}

type violation struct{ kind, detail string }

func (r *record) failure() *failure {
	if r.fail == nil {
		r.fail = &failure{}
	}
	return r.fail
}

// taskLog is the record list of one finished task. refs counts the committer's
// pending references to it; at zero it goes back to the crew. by is the worker
// that finished it, whose backlog it counts in until then.
type taskLog struct {
	recs     []record
	donated  bool
	restores int // engine restores the task made
	refs     int
	by       *worker
}

// task is the subtree under one frontier entry, explored by one worker.
type task struct {
	root    *entry
	donated bool        // handed to an idle worker by a busy one
	dead    atomic.Bool // its root turned out a duplicate at commit: nothing reads its log
	done    bool        // guarded by crew.mu, as is log
	log     *taskLog
}

// maxBacklog is how many finished logs of its own a worker may have awaiting
// commit and still start a task the committer does not wait for. A worker
// then holds at most maxBacklog+1 logs, the one it fills included, and runs
// at most about maxBacklog tasks ahead of the committer, whatever the model.
// At 4 the second worker on the two-worm model waited for the committer 60
// times an exhaustion, at 8 about 16.
const maxBacklog = 8

// spareBatch is how many spare entries a worker takes from the crew's pool
// when it has none, and gives back when it holds twice as many.
const spareBatch = 2

// crew is what the workers and the committer share: the pending tasks, the
// free logs, the pool of spare entries and the stop flag, under one mutex and
// one condition variable.
type crew struct {
	mu   sync.Mutex
	cond sync.Cond
	// pending is ordered by serial-DFS position, the latest first: its last
	// task is the one the committer reaches first, and every worker takes it.
	pending []*task
	want    *task // the task the committer waits for
	idle    int   // workers waiting for a task they may take, whichever it is
	free    []*taskLog
	spare   []*entry
	// logCap is the most records a finished log has held, the capacity a new
	// log is made at: it is one allocation then, not a growth by append. What
	// a task could log at most, taskPops pops each with every edge of the
	// catalog, is 2.5 times what tasks log on the two-worm model, 8 on the ring.
	logCap  int
	logs    int // logs made because none was free
	donated int
	// hungry is idle workers less pending tasks: while it is positive a busy
	// worker cuts its task and hands the top of its stack over. stop ends
	// every worker.
	hungry atomic.Int32
	stop   atomic.Bool
}

func newCrew() *crew {
	c := &crew{}
	c.cond.L = &c.mu
	return c
}

func (c *crew) setHungry() { c.hungry.Store(int32(c.idle - len(c.pending))) }

// full reports whether w has maxBacklog finished logs awaiting commit: it may
// then start only the task the committer waits for.
func (w *worker) full() bool { return w.backlog.Load() >= maxBacklog }

// take removes a pending task and gives it to w with a log to fill: the one
// the committer waits for (the earliest, but the committer's progress does
// not hang on the order), else the earliest, unless w is full (nil then).
// c.mu is held.
func (c *crew) take(w *worker) *task {
	i := slices.Index(c.pending, c.want)
	if i < 0 && !w.full() {
		i = len(c.pending) - 1
	}
	if i < 0 {
		return nil
	}
	t := c.pending[i]
	c.pending = slices.Delete(c.pending, i, i+1)
	c.setHungry()
	c.logFor(w)
	return t
}

// logFor readies a log for w to fill: the one it has, a free one or a new one.
func (c *crew) logFor(w *worker) {
	l := w.log
	if n := len(c.free); l == nil && n > 0 {
		l, c.free = c.free[n-1], c.free[:n-1]
	} else if l == nil {
		l = &taskLog{recs: make([]record, 0, c.logCap)}
		c.logs++
	}
	l.recs, l.donated, l.restores, l.refs, l.by = l.recs[:0], false, 0, 0, nil
	w.log = l
}

// next blocks until there is a task w may take and takes it (nil once stopped).
func (c *crew) next(w *worker) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.stop.Load() {
		if t := c.take(w); t != nil {
			return t
		}
		open := !w.full()
		if open {
			c.idle++
		}
		c.setHungry()
		c.cond.Wait()
		if open {
			c.idle--
		}
	}
	return nil
}

// insert makes t pending at its serial-DFS position. c.mu is held.
func (c *crew) insert(t *task) {
	i, _ := slices.BinarySearchFunc(c.pending, t, func(p, t *task) int {
		if popsBefore(t.root.schedule, p.root.schedule) {
			return -1
		}
		return 1
	})
	c.pending = slices.Insert(c.pending, i, t)
}

// push makes tasks pending.
func (c *crew) push(ts ...*task) {
	c.mu.Lock()
	for _, t := range ts {
		c.insert(t)
	}
	c.setHungry()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// finish publishes w's log of task t, makes the tasks cut from t pending
// (spawned, in stack order: the last is the earliest) and returns the task w
// goes on with: the earliest pending one, if w may take it, or nil. With
// gift, while a worker still waits for work, the earliest of spawned is left
// to it: w goes on with the next one, unless it is full. The log of a task
// found dead is nobody's to read: w keeps it, and the tasks cut from t are
// dead too.
func (c *crew) finish(w *worker, t *task, spawned []*task, gift bool) *task {
	c.mu.Lock()
	defer c.cond.Broadcast()
	defer c.mu.Unlock()
	l := w.log
	t.root = nil
	c.logCap = max(c.logCap, len(l.recs))
	if t.dead.Load() {
		c.dropCut(l)
	} else {
		t.log, t.done, l.by, w.log = l, true, w, nil
		w.backlog.Add(1)
	}
	var next *task
	if n := len(spawned); gift && n > 1 && c.idle > len(c.pending) {
		spawned[n-1].donated = true
		c.donated++
		if !w.full() {
			next = spawned[n-2]
			spawned = append(spawned[:n-2], spawned[n-1])
			c.logFor(w)
		}
	}
	for _, t := range spawned {
		c.insert(t)
	}
	if next == nil {
		next = c.take(w)
	}
	c.setHungry()
	return next
}

// throttle holds a worker whose task t runs ahead of the budget until it no
// longer does, the committer waits for t, or the crew stops. It returns true
// when the committer waits for a pending task instead: the worker cuts its
// task and takes that one.
func (c *crew) throttle(t *task, ahead func() bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ahead() && c.want != t && !c.stop.Load() {
		if slices.Contains(c.pending, c.want) {
			return true
		}
		c.cond.Wait()
	}
	return false
}

// await blocks until t is done and returns its log.
func (c *crew) await(t *task) *taskLog {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !t.done {
		if c.want != t {
			c.want = t
			c.cond.Broadcast() // a throttled worker may be holding t
		}
		c.cond.Wait()
	}
	c.want = nil
	return t.log
}

// release gives a log the committer is done with back for reuse.
func (c *crew) release(l *taskLog) {
	c.mu.Lock()
	c.releaseLocked(l)
	c.mu.Unlock()
}

// releaseLocked is release with c.mu held. A worker the log's return takes
// below its bound may run any task again: it is woken.
func (c *crew) releaseLocked(l *taskLog) {
	c.free = append(c.free, l)
	if l.by.backlog.Add(-1) == maxBacklog-1 {
		c.cond.Broadcast()
	}
}

// discard marks t dead, the task of a subtree the committer found a
// duplicate, and with it every task cut from that subtree: nothing reads
// their logs. A finished one's log goes back for reuse now; a running one's
// worker drops it at its next pop, and one still pending when it is taken.
func (c *crew) discard(t *task) {
	c.mu.Lock()
	c.discardLocked(t)
	c.mu.Unlock()
}

func (c *crew) discardLocked(t *task) {
	t.dead.Store(true)
	if t.done && t.log != nil {
		l := t.log
		t.log = nil
		c.dropCut(l)
		c.releaseLocked(l)
	}
}

// dropCut discards the tasks a dead task's log names, those cut from it.
func (c *crew) dropCut(l *taskLog) {
	for i := range l.recs {
		if u := l.recs[i].task; u != nil {
			c.discardLocked(u)
		}
	}
}

// refill gives w a batch of the pool's spare entries, if it has any.
func (c *crew) refill(w *worker) {
	c.mu.Lock()
	n := len(c.spare) - min(spareBatch, len(c.spare))
	w.spare = append(w.spare, c.spare[n:]...)
	clear(c.spare[n:])
	c.spare = c.spare[:n]
	c.mu.Unlock()
}

// overflow moves a batch of w's spare entries, the ones it recycled first, to
// the pool.
func (c *crew) overflow(w *worker) {
	c.mu.Lock()
	c.spare = append(c.spare, w.spare[:spareBatch]...)
	c.mu.Unlock()
	n := copy(w.spare, w.spare[spareBatch:])
	clear(w.spare[n:])
	w.spare = w.spare[:n]
}

// halt stops every worker at its next pop.
func (c *crew) halt() {
	c.mu.Lock()
	c.stop.Store(true)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// worker owns what exploring a subtree takes: the work and aux engines (built
// on first use, closed when Run returns), the canonical-byte buffers, the spare
// entries and the slab its schedule links are cut from, and the log and DFS
// stack of its current task. work executes the actions, aux takes the checks
// that must not disturb it (round trip, probe, minimisation). A round trip that
// matches leaves aux holding the new state as Restore loaded it, so the two
// swap and held records the entry work now holds: its first edge steps from
// there instead of restoring it again. Any other use of work clears held.
type worker struct {
	x         *Explorer
	work, aux *sim.Engine
	held      *entry
	resume    *task // a task w cut holding its root, while w waits for one
	restores  int   // engine restores, committed or not
	edges     int64 // edges executed, committed or not
	carved    int   // new snapshots entryFrom made
	// backlog counts the logs this worker finished that the committer has
	// not released; guarded by crew.mu, read without it.
	backlog atomic.Int32

	// A visited state is stored, not allocated. A snapshot has one owner, which
	// alone writes it: a frontier entry, until expanded or found a duplicate;
	// then, still in that entry, the spare list entryFrom draws from (or the
	// crew's pool, which evens the lists of the workers out); roundTrip,
	// checkRoundTrip's scratch; or a Counterexample, which keeps the one that
	// materialize gave it. canon (the visited key) and canonRT (the round
	// trip), recovered, onDeadlock: hashing and step scratch.
	spare      []*entry
	links      []sched
	roundTrip  sim.Snapshot
	canon      sim.CanonBuf
	canonRT    sim.CanonBuf
	recovered  []int64
	onDeadlock trace.Listener

	log     *taskLog
	pop     int                   // index in log of the pop being expanded
	stack   []*entry              // the task's private DFS stack
	seen    map[[32]byte]struct{} // the task's new states so far
	tasks   []task                // the slab handOff cuts tasks from
	spawned []*task               // a cut's tasks, scratch
}

// taskSlab is how many tasks handOff cuts from one allocation.
const taskSlab = 64

// start readies w to explore: New's worker only materialises until it does.
func (w *worker) start() {
	if w.log != nil {
		return
	}
	w.log, w.seen = &taskLog{}, make(map[[32]byte]struct{})
	w.onDeadlock = trace.Func(func(ev trace.Event) {
		if ev.Kind == trace.KindDeadlock {
			w.recovered = append(w.recovered, ev.Msg)
		}
	})
}

// close drops the worker's engines (a sharded engine owns worker goroutines)
// and the last slab, which would keep every predecessor of its links alive.
func (w *worker) close() {
	for _, e := range []*sim.Engine{w.work, w.aux} {
		if e != nil {
			e.Close()
		}
	}
	w.work, w.aux, w.held = nil, nil, nil
	w.links, w.spare, w.stack, w.log, w.tasks, w.spawned = nil, nil, nil, nil, nil, nil
}

// loop runs tasks until the crew stops.
func (w *worker) loop(c *crew) {
	w.start()
	for t := c.next(w); t != nil; t = c.next(w) {
		if t != w.resume {
			w.held = nil // a task from the queue starts from its root's snapshot
		}
		for t != nil {
			t = w.run(c, t)
		}
	}
}

// run explores task t: it pops and expands entries, logging each pop and edge,
// until the stack drains, the task is cut, or the crew stops it. A task is cut
// at taskPops; when a worker waits for work, to hand it the top of the stack;
// and when it is throttled (throttle) for a pending task the committer waits
// for. At a cut every entry left becomes a task, each named in the record of
// the edge that found it. run returns the task this worker goes on with
// (crew.finish), nil for one from the queue.
func (w *worker) run(c *crew, t *task) *task {
	x, l := w.x, w.log
	l.donated = t.donated
	restores := w.restores
	clear(w.seen)
	if x.onTask != nil {
		x.onTask(w.seen)
	}
	t.root.origin = -1
	w.stack = append(w.stack[:0], t.root)
	spawned, gift := w.spawned[:0], false
	for pops := 0; len(w.stack) > 0; pops++ {
		if c.stop.Load() || t.dead.Load() {
			w.drop()
			break
		}
		gift = len(w.stack) > 1 && c.hungry.Load() > 0
		if gift || pops == taskPops || pops > 0 && x.ahead() && c.throttle(t, x.ahead) {
			for _, en := range w.stack {
				spawned = append(spawned, w.handOff(en))
			}
			w.stack = w.stack[:0]
			break
		}
		parent := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if parent.origin >= 0 {
			l.recs[parent.origin].n = int32(len(l.recs))
		}
		if err := w.expand(parent, x.allUsed); err != nil {
			l.recs = append(l.recs, record{kind: recError, fail: &failure{err: err}})
			l.recs[w.pop].n++
			w.drop()
			break
		}
		w.recycle(parent) // expanded: nothing restores it again
	}
	l.restores = w.restores - restores
	w.spawned, w.resume = spawned, nil
	if n := len(spawned); n > 0 && spawned[n-1].root == w.held {
		w.resume = spawned[n-1] // only the top of the stack can be held
	}
	next := c.finish(w, t, spawned, gift)
	if next != nil && next != w.resume {
		w.held = nil
	}
	return next
}

// handOff makes en, an entry on this worker's stack, the root of a task of its
// own and names the task in the record of the edge that found en.
func (w *worker) handOff(en *entry) *task {
	if len(w.tasks) == cap(w.tasks) {
		w.tasks = make([]task, 0, taskSlab)
	}
	w.tasks = append(w.tasks, task{root: en})
	t := &w.tasks[len(w.tasks)-1]
	w.log.recs[en.origin].task = t
	return t
}

// drop recycles what is left on an abandoned task's stack.
func (w *worker) drop() {
	for _, en := range w.stack {
		w.recycle(en)
	}
	w.stack = w.stack[:0]
}

// materialize replays a schedule from the initial state and builds its
// frontier entry (snapshot, ground truth, occupancy).
func (w *worker) materialize(schedule [][]int) (*entry, error) {
	e, err := sim.New(w.x.cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	var used uint32
	var done *sched
	for _, inj := range schedule {
		for _, i := range inj {
			w.x.spec.inject(e, i)
			used |= 1 << uint(i)
		}
		e.Step()
		done = done.then(inj, &w.links)
	}
	return w.entryFrom(e, done, used)
}

// entryFrom captures a live engine as a frontier entry (a spare one, or a new
// entry with a new snapshot when neither the spare list nor the crew's pool
// has one).
func (w *worker) entryFrom(e *sim.Engine, schedule *sched, used uint32) (*entry, error) {
	if c := w.x.crew; len(w.spare) == 0 && c != nil {
		c.refill(w)
	}
	var en *entry
	if n := len(w.spare); n > 0 {
		en, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		en = &entry{snap: new(sim.Snapshot)}
		w.carved++
	}
	if err := e.SnapshotInto(en.snap); err != nil {
		return nil, err
	}
	src, rec := e.QueueLengths()
	en.schedule, en.used = schedule, used
	en.gt = e.BuildWaitGraph().Deadlocked() // a new slice: a Counterexample may keep it
	en.inFlight, en.queued = e.InFlight(), src+rec
	return en, nil
}

// recycle puts an entry that nothing restores again on the spare list, and a
// batch of the list in the crew's pool when it holds two.
func (w *worker) recycle(en *entry) {
	if w.held == en {
		w.held = nil
	}
	en.schedule, en.gt = nil, nil
	w.spare = append(w.spare, en)
	if c := w.x.crew; len(w.spare) >= 2*spareBatch && c != nil {
		c.overflow(w)
	}
}

// expand logs parent's pop and generates every successor of it: one per subset
// of the not-yet-injected catalog (injected at the boundary, catalog order),
// followed by one engine Step.
func (w *worker) expand(parent *entry, allUsed uint32) error {
	w.pop = len(w.log.recs)
	w.log.recs = append(w.log.recs, record{kind: recExpanded, link: parent.schedule})
	if parent.used == allUsed && parent.inFlight == 0 && parent.queued == 0 {
		w.log.recs[w.pop].kind = recTerminal
		return nil
	}
	if int64(parent.schedule.len()) >= w.x.spec.MaxCycles {
		w.log.recs[w.pop].kind = recHorizon
		return nil
	}
	// The subsets of the not-yet-injected catalog in increasing order: the
	// empty action is pushed first and the all-in action last, so DFS (LIFO)
	// dives into inject-everything-now schedules first and reaches the deep
	// blocked states where detection fires early in the exploration.
	remaining := allUsed &^ parent.used
	for sub := uint32(0); ; sub = (sub - remaining) & remaining {
		if err := w.step(parent, sub); err != nil {
			return err
		}
		if sub == remaining {
			return nil
		}
	}
}

// step executes one action (inject the catalog entries of mask inject, Step
// once) from parent and logs the edge, running the per-state check battery if
// the successor is new to this task and to the committed set.
func (w *worker) step(parent *entry, inject uint32) error {
	x := w.x
	e := w.work
	if w.held != parent {
		var err error
		if e, err = w.restore(&w.work, parent.snap); err != nil { // restore runs CheckInvariants
			return fmt.Errorf("modelcheck: restore at depth %d: %w", parent.schedule.len(), err)
		}
	}
	w.held = nil
	for _, i := range x.injects[inject] {
		x.spec.inject(e, i)
	}
	w.recovered = w.recovered[:0]
	e.SetListener(w.onDeadlock)
	e.Step()
	e.SetListener(nil)
	w.edges++

	// FC3D fired on this edge: recoveries of ground-truth-deadlocked
	// messages are true positives, the rest false positives. The parent's
	// ground truth still applies — boundary injections only touch source
	// queues, never in-network state.
	r := record{kind: recEdge, inject: inject, used: parent.used | inject, n: -1}
	for _, id := range w.recovered {
		if containsID(parent.gt, id) {
			r.tp++
		} else {
			r.fp++
		}
	}

	link := parent.schedule.then(x.injects[inject], &w.links)
	child, err := w.entryFrom(e, link, r.used)
	if err != nil {
		return err
	}
	b, err := w.canon.Bytes(child.snap)
	if err != nil {
		return err
	}
	r.hash = sha256.Sum256(b)
	if _, dup := w.seen[r.hash]; dup || x.visited.has(&r.hash) {
		r.kind = recDup
		w.recycle(child)
		w.links = w.links[:len(w.links)-1] // link was the last one cut
		w.logEdge(r)
		return nil
	}
	w.seen[r.hash] = struct{}{}
	r.link = link

	// Check battery on the newly visited state.
	if err := e.CheckInvariants(); err != nil {
		r.failure().violations = append(r.failure().violations, violation{"invariants", err.Error()})
	}
	if err := e.VerifyInjectionProperty(); err != nil {
		r.failure().violations = append(r.failure().violations, violation{"alo-property", err.Error()})
	}
	if err := w.checkRoundTrip(child, b, r.hash); err != nil {
		r.failure().violations = append(r.failure().violations, violation{"snapshot-roundtrip", err.Error()})
	} else {
		// aux holds child as Restore loaded it and load's CheckInvariants passed
		// it: child's first edge steps from there. e is done with.
		w.work, w.aux, w.held = w.aux, w.work, child
	}
	if len(child.gt) > 0 {
		var detail string
		if r.probe, detail, err = w.probe(child); err != nil {
			return err
		}
		if r.probe != probeDetected {
			r.failure().detail = detail
		}
	}
	if r.fail != nil {
		r.fail.gt = child.gt
	}
	x.logged.Add(1)
	child.origin = int32(len(w.log.recs))
	w.logEdge(r)
	w.stack = append(w.stack, child)
	return nil
}

// logEdge appends an edge record to the pop being expanded.
func (w *worker) logEdge(r record) {
	w.log.recs = append(w.log.recs, r)
	w.log.recs[w.pop].n++
}

// restore loads snap into the scratch engine *slot, building the engine the
// first time the slot is used.
func (w *worker) restore(slot **sim.Engine, snap *sim.Snapshot) (*sim.Engine, error) {
	w.restores++
	if *slot != nil {
		return *slot, (*slot).Restore(snap)
	}
	e, err := sim.RestoreEngine(w.x.cfg, snap)
	*slot = e
	return e, err
}

// checkRoundTrip asserts restore identity: loading the child snapshot into
// aux and re-snapshotting reproduces its canonical bytes, want (whose hash is
// wantHash).
func (w *worker) checkRoundTrip(child *entry, want []byte, wantHash [32]byte) error {
	r, err := w.restore(&w.aux, child.snap)
	if err != nil {
		return err
	}
	if err := r.SnapshotInto(&w.roundTrip); err != nil {
		return err
	}
	if w.x.onRoundTrip != nil {
		w.x.onRoundTrip(child, &w.roundTrip)
	}
	got, err := w.canonRT.Bytes(&w.roundTrip)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("restored state hashes %x, original %x", sha256.Sum256(got), wantHash)
	}
	return nil
}

// probe is the zero-false-negatives check: from a ground-truth-deadlocked
// state, the engine runs forward (no further injections) and FC3D must
// fire recovery for some deadlocked message within the probe budget. A
// silent run is a false negative; a deadlocked message getting *delivered*
// instead refutes the oracle itself (also fatal — the two implementations
// disagree and the checker cannot tell which is right without a human). The
// committer turns either into a counterexample.
func (w *worker) probe(state *entry) (probeOutcome, string, error) {
	e, err := w.restore(&w.aux, state.snap)
	if err != nil {
		return probeNone, "", err
	}
	defer func() { e.SetListener(nil) }()
	var detected, unsoundID int64 = -1, -1
	intervened := false
	e.SetListener(trace.Func(func(ev trace.Event) {
		switch ev.Kind {
		case trace.KindDeadlock:
			intervened = true
			if containsID(state.gt, ev.Msg) && detected < 0 {
				detected = ev.Msg
			}
		case trace.KindDelivered:
			// Delivery refutes the oracle only while the engine has not
			// intervened: the oracle's claim is "stuck in the absence of
			// recovery", and recovering ANY message (killing its worm frees
			// the channels the cycle waits on) leaves that modeled world.
			if containsID(state.gt, ev.Msg) && !intervened && unsoundID < 0 {
				unsoundID = ev.Msg
			}
		}
	}))
	budget := w.x.spec.probeBudget()
	for i := int64(0); i < budget; i++ {
		e.Step()
		if unsoundID >= 0 {
			return probeOracleUnsound, fmt.Sprintf("message %d is oracle-deadlocked but was delivered at cycle %d", unsoundID, e.Now()), nil
		}
		if detected >= 0 && !w.x.opt.SyntheticMiss {
			return probeDetected, "", nil
		}
	}
	detail := fmt.Sprintf("no recovery of messages %v within %d probe cycles", state.gt, budget)
	if w.x.opt.SyntheticMiss && detected >= 0 {
		detail = fmt.Sprintf("synthetic miss: detector signal for message %d suppressed", detected)
	}
	return probeFalseNegative, detail, nil
}

// stillMisses replays a candidate schedule and reports whether it still
// reproduces the failure: a ground-truth deadlock the probe (under the
// same detector policy, including SyntheticMiss) does not detect. Returns
// the deadlocked set, or nil if the candidate no longer fails.
func (w *worker) stillMisses(schedule [][]int) []int64 {
	st, err := w.materialize(schedule)
	if err != nil || len(st.gt) == 0 {
		return nil
	}
	e, err := w.restore(&w.aux, st.snap)
	if err != nil {
		return nil
	}
	defer func() { e.SetListener(nil) }()
	detected := false
	e.SetListener(trace.Func(func(ev trace.Event) {
		if ev.Kind == trace.KindDeadlock && containsID(st.gt, ev.Msg) {
			detected = true
		}
	}))
	budget := w.x.spec.probeBudget()
	for i := int64(0); i < budget; i++ {
		e.Step()
		if detected && !w.x.opt.SyntheticMiss {
			return nil
		}
	}
	return st.gt
}
