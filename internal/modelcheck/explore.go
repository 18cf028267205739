package modelcheck

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
)

// Options tunes one exploration run.
type Options struct {
	// Journal, when non-empty, is the path of the crash-resume journal:
	// the visited set, the pending frontier (as schedules) and the report
	// so far, persisted in the WNCP checkpoint framing every JournalEvery
	// newly visited states. Resume continues from it.
	Journal      string
	JournalEvery int // default 2000

	// CounterexampleDir, when non-empty, receives one WNCP-framed
	// Counterexample file per checker failure.
	CounterexampleDir string

	// SyntheticMiss makes the false-negative probe deliberately ignore the
	// detector's recovery signal, so every ground-truth deadlock becomes a
	// reported false negative. It exists to prove the checker *fails* when
	// the oracle and FC3D disagree — the self-test of the whole lane.
	SyntheticMiss bool

	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o Options) journalEvery() int {
	if o.JournalEvery > 0 {
		return o.JournalEvery
	}
	return 2000
}

// sched is a schedule — the catalog indices injected before each executed
// Step — as a list linked towards the root: a successor shares its parent's
// cycles instead of copying them. nil is the empty schedule.
type sched struct {
	prev   *sched
	inject []int
	depth  int // cycles up to and including this one
}

// The slabs then cuts links from: the first holds firstSchedSlab links, each
// later one twice the one before, up to maxSchedSlab. A worker that cuts few
// links allocates little, one that explores subtrees an object per thousand.
const (
	firstSchedSlab = 16
	maxSchedSlab   = 1024
)

// then returns s extended by one cycle injecting inject, in a link cut from
// *slab (a new slab when it is full; links are never moved).
func (s *sched) then(inject []int, slab *[]sched) *sched {
	if len(*slab) == cap(*slab) {
		*slab = make([]sched, 0, min(max(firstSchedSlab, 2*cap(*slab)), maxSchedSlab))
	}
	*slab = append(*slab, sched{prev: s, inject: inject, depth: s.len() + 1})
	return &(*slab)[len(*slab)-1]
}

func (s *sched) len() int {
	if s == nil {
		return 0
	}
	return s.depth
}

// slice materialises the schedule in execution order, for the places that
// persist or replay it (journal, counterexamples).
func (s *sched) slice() [][]int {
	out := make([][]int, s.len())
	for ; s != nil; s = s.prev {
		out[s.depth-1] = s.inject
	}
	return out
}

// entry is one frontier state awaiting expansion.
type entry struct {
	snap     *sim.Snapshot
	schedule *sched
	used     uint32  // catalog entries already injected
	gt       []int64 // ground-truth deadlocked message IDs at this state
	inFlight int64
	queued   int
	origin   int32 // the index in its task's log of the edge that found it; -1 for a task's root
}

// item is one entry of the committer's frontier, the serial explorer's stack:
// a committed state, and where its expansion was logged — the log and index
// of its pop record, or the task its subtree was handed to.
type item struct {
	link *sched
	used uint32
	task *task
	log  *taskLog
	at   int32
}

// RunStats says how a Run spread its work: the workers it ran (one per P),
// the tasks idle workers took from busy ones and the states committed from
// them, the edges explored and then discarded (duplicate subtrees and tasks
// past the budget) and the engine restores behind the committed logs, per
// state a measure of how often an expansion could step from the engine its
// round trip loaded. The restores of discarded work are not in Restores: a
// budget-truncated run at several P explores past the budget on its way.
// Logs counts the task logs the workers made: the one each starts with, and
// one for every task that finished while no log the committer was done with
// waited for reuse. VisitedBytes is the memory the visited set holds when Run
// returns: its index table and its hash chunks.
type RunStats struct {
	Workers       int
	Donated       int
	DonatedStates int
	Discarded     int64
	Restores      int
	Logs          int
	VisitedBytes  int
}

// Explorer enumerates the reachable state space of a Spec.
type Explorer struct {
	spec    Spec
	cfg     sim.Config
	digest  string
	opt     Options
	allUsed uint32  // the mask of the whole catalog
	injects [][]int // injects[m]: the catalog indices of mask m, built by Run

	// visited is the committed set: the committer alone adds to it, and
	// workers read it to prune.
	visited *hashSet
	// logged counts the new states workers have logged and resolved those the
	// committer has kept or found duplicates; committed mirrors rep.States.
	// Together they tell a worker when what it speculates on outruns the
	// state budget (ahead).
	logged, resolved, committed atomic.Int64
	// stack is the frontier before Run (New's root, Resume's schedules); items
	// is the committer's during it.
	stack        []*entry
	items        []item
	rep          *Report
	sinceJournal int
	crew         *crew
	stats        RunStats

	// cw is the committer's worker: it materialises New's root and Resume's
	// frontier, counterexamples and their minimisation, and re-steps an edge a
	// worker pruned on a state the committer did not keep.
	cw *worker

	// Test hooks: onCounterexample sees each counterexample as emitted,
	// onRoundTrip each round-trip snapshot before it is compared and onTask
	// each task's set of seen states as the task starts (both on the worker's
	// goroutine).
	onCounterexample func(*Counterexample)
	onRoundTrip      func(*entry, *sim.Snapshot)
	onTask           func(map[[32]byte]struct{})
}

// New prepares an exploration of spec from the initial (empty) state. It
// builds no scratch engine and starts no goroutine: Run does.
func New(spec Spec, opt Options) (*Explorer, error) {
	x, e, err := newExplorer(spec, opt)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	root, err := x.cw.entryFrom(e, nil, 0) // the engine Config validated is the initial state
	if err != nil {
		return nil, err
	}
	x.digest = root.snap.Config
	h, err := x.cw.canon.Hash(root.snap)
	if err != nil {
		return nil, err
	}
	x.visited.add(h)
	x.rep.States = 1
	x.stack = append(x.stack, root)
	return x, nil
}

// newExplorer builds an explorer of spec with an empty frontier, and returns
// the engine of the initial state it validated spec with, for its caller to
// close.
func newExplorer(spec Spec, opt Options) (*Explorer, *sim.Engine, error) {
	cfg, e, err := spec.build()
	if err != nil {
		return nil, nil, err
	}
	x := &Explorer{
		spec:    spec,
		cfg:     cfg,
		opt:     opt,
		visited: newHashSet(),
		rep:     &Report{Spec: spec, Threshold: spec.Threshold},
	}
	x.cw = &worker{x: x}
	return x, e, nil
}

// Run explores until the frontier drains or the state budget is hit, then
// returns the report. It may be called once per Explorer.
//
// Run starts one worker per P. A worker explores a task — the subtree under
// one frontier entry — as the serial DFS would, logging each pop and edge
// instead of writing the report, and prunes on the committed set and on its
// own task's states, both earlier in DFS order. The committer, on Run's
// goroutine, replays the logs in the serial DFS order against the one visited
// set, so the report, counterexamples and journal are the serial explorer's
// at any number of workers.
func (x *Explorer) Run() (*Report, error) {
	x.allUsed = uint32(1)<<uint(len(x.spec.Messages)) - 1
	x.injects = make([][]int, x.allUsed+1)
	for m := range x.injects {
		for i := range x.spec.Messages {
			if m&(1<<uint(i)) != 0 {
				x.injects[m] = append(x.injects[m], i)
			}
		}
	}
	x.crew = newCrew()
	c := x.crew
	procs := runtime.GOMAXPROCS(0)
	x.stats = RunStats{Workers: procs}
	workers := make([]*worker, procs)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &worker{x: x}
	}
	x.cw.start()
	edgesBefore, cwRestores := x.rep.Edges, x.cw.restores
	x.committed.Store(int64(x.rep.States))
	tasks := make([]*task, len(x.stack))
	x.items = x.items[:0]
	for i, en := range x.stack {
		tasks[i] = &task{root: en}
		x.items = append(x.items, item{link: en.schedule, used: en.used, task: tasks[i]})
	}
	x.stack = nil
	c.push(tasks...)
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(c)
		}()
	}
	err := x.commit()
	c.halt()
	wg.Wait()

	var edges int64
	x.stats.Donated, x.stats.Logs = c.donated, c.logs+len(workers)
	x.stats.Restores += x.cw.restores - cwRestores
	for _, w := range append(workers, x.cw) {
		edges += w.edges
		w.close()
	}
	x.stats.Discarded = edges - (x.rep.Edges - edgesBefore)
	x.stats.VisitedBytes = x.visited.bytes()
	x.crew = nil
	if err != nil {
		x.items = nil
		return nil, err
	}
	if len(x.items) == 0 {
		x.rep.Exhausted = true
	}
	if x.opt.Journal != "" {
		if err := x.writeJournal(); err != nil {
			return nil, err
		}
	}
	x.items = nil // the frontier's tasks would keep their logs and entries alive
	return x.rep, nil
}

// Report returns the report accumulated so far (also valid after Run).
func (x *Explorer) Report() *Report { return x.rep }

// RunStats returns how the last Run spread its work.
func (x *Explorer) RunStats() RunStats { return x.stats }

// commit replays the workers' logs in serial DFS order: it pops its frontier
// as the serial explorer popped its stack, finds each pop's record in the log
// of the task that expanded it, and commits its edges — the budget, the
// visited set, the report, counterexamples, the journal and progress lines
// happen here only.
func (x *Explorer) commit() error {
	for len(x.items) > 0 {
		if x.rep.States >= x.spec.MaxStates {
			x.rep.BudgetTruncated = true
			x.opt.logf("state budget %d reached with %d frontier states pending", x.spec.MaxStates, len(x.items))
			return nil
		}
		it := x.items[len(x.items)-1]
		x.items = x.items[:len(x.items)-1]
		l, at := it.log, it.at
		if it.task == nil && at < 0 {
			return fmt.Errorf("modelcheck: internal: state at depth %d was neither expanded nor handed off", it.link.len())
		}
		if it.task != nil {
			l, at = x.crew.await(it.task), 0
			l.refs++
			x.stats.Restores += l.restores
		}
		pop := &l.recs[at]
		switch pop.kind {
		case recTerminal:
			x.rep.Terminals++
		case recHorizon:
			x.rep.HorizonTruncated++
		case recExpanded:
			if d := pop.link.len(); d > x.rep.MaxDepth {
				x.rep.MaxDepth = d
			}
			for j := at + 1; j <= at+pop.n; j++ {
				if err := x.commitEdge(l, &l.recs[j], pop); err != nil {
					return err
				}
			}
		}
		if l.refs--; l.refs == 0 {
			x.crew.release(l)
		}
	}
	return nil
}

// commitEdge commits one logged edge of pop, a record of l.
func (x *Explorer) commitEdge(l *taskLog, r *record, pop *record) error {
	if r.kind == recError {
		return r.fail.err
	}
	if r.kind == recEdge {
		x.resolved.Add(1)
	}
	x.rep.Edges++
	x.rep.TruePositives += int64(r.tp)
	x.rep.FalsePositives += int64(r.fp)
	if x.visited.has(&r.hash) {
		x.rep.DupEdges++
		if r.task != nil {
			r.task.dead.Store(true)
		}
		return nil
	}
	if r.kind == recDup {
		// The worker pruned on a state of its own task that the committer
		// skipped with a subtree it found a duplicate: the state is new here.
		var err error
		if r, err = x.restep(pop.link, r.inject); err != nil {
			return err
		}
		x.resolved.Add(1)
	}
	x.visited.add(r.hash)
	x.rep.States++
	x.committed.Store(int64(x.rep.States))
	if l.donated {
		x.stats.DonatedStates++
	}

	if f := r.fail; f != nil {
		for _, v := range f.violations {
			x.violation(r.link, f.gt, v.kind, v.detail)
		}
	}
	if r.probe != probeNone {
		x.rep.DeadlockStates++
		x.rep.Probes++
		switch r.probe {
		case probeDetected:
			x.rep.Detected++
		case probeOracleUnsound:
			x.rep.OracleUnsound++
			if err := x.emitCounterexample(r.link, r.fail.gt, CxOracleUnsound, r.fail.detail); err != nil {
				return err
			}
		case probeFalseNegative:
			x.rep.FalseNegatives++
			if err := x.emitCounterexample(r.link, r.fail.gt, CxFalseNegative, r.fail.detail); err != nil {
				return err
			}
		}
	}

	// A child the worker neither popped nor handed off (it stopped at an
	// error record of this pop) is refused when popped, after that error.
	next := item{link: r.link, used: r.used, task: r.task}
	if r.task == nil {
		next.log, next.at = l, r.n
		l.refs++
	}
	x.items = append(x.items, next)
	x.sinceJournal++
	if x.opt.Journal != "" && x.sinceJournal >= x.opt.journalEvery() {
		x.sinceJournal = 0
		if err := x.writeJournal(); err != nil {
			return err
		}
	}
	if x.opt.Log != nil && x.rep.States%5000 == 0 {
		x.opt.logf("%d states, %d edges, %d deadlock states, frontier %d",
			x.rep.States, x.rep.Edges, x.rep.DeadlockStates, len(x.items))
	}
	return nil
}

// ahead reports whether the new states logged and not yet resolved reach what
// is left of the state budget: past that a worker whose task the committer
// does not wait for explores what a budget-cut run is likely to discard.
func (x *Explorer) ahead() bool {
	return x.logged.Load()-x.resolved.Load() >= int64(x.spec.MaxStates)-x.committed.Load()
}

// restep executes the edge (parent, inject) again on the committer's worker,
// which knows no state of any task, and returns its record: the child's subtree
// is a new task, which the committer will wait for first.
func (x *Explorer) restep(parent *sched, inject uint32) (*record, error) {
	w := x.cw
	en, err := w.materialize(parent.slice())
	if err != nil {
		return nil, err
	}
	clear(w.seen)
	w.held, w.pop = nil, 0
	w.log.recs = append(w.log.recs[:0], record{kind: recExpanded, link: en.schedule})
	w.stack = w.stack[:0]
	err = w.step(en, inject)
	w.recycle(en)
	if err != nil {
		return nil, err
	}
	r := w.log.recs[1]
	if r.kind != recEdge {
		return nil, fmt.Errorf("modelcheck: internal: a re-stepped edge at depth %d was pruned again", parent.len())
	}
	r.task = w.handOff(w.stack[0], false)
	w.stack, w.held = w.stack[:0], nil
	x.crew.push(r.task)
	return &r, nil
}

// violation records a fatal per-state check failure and dumps the state.
func (x *Explorer) violation(schedule *sched, gt []int64, kind, detail string) {
	x.rep.Violations = append(x.rep.Violations, fmt.Sprintf("%s at depth %d: %s", kind, schedule.len(), detail))
	if err := x.emitCounterexample(schedule, gt, CxKind(kind), detail); err != nil {
		x.rep.Violations = append(x.rep.Violations, fmt.Sprintf("counterexample dump failed: %v", err))
	}
}

// emitCounterexample minimizes (for deadlock-probe failures) and persists
// a replayable counterexample of the state schedule reaches, whose ground
// truth is gt, recording it in the report.
func (x *Explorer) emitCounterexample(schedule *sched, gt []int64, kind CxKind, detail string) error {
	cx := &Counterexample{
		Kind:     kind,
		Detail:   detail,
		Digest:   x.digest,
		Spec:     x.spec,
		Schedule: schedule.slice(),
		GT:       gt,
	}
	// cx keeps the snapshot of an entry materialised for it alone, by replay,
	// as a resumed frontier is: the worker's own went on to be expanded.
	st, err := x.cw.materialize(cx.Schedule)
	if err != nil {
		return err
	}
	cx.Snap = st.snap
	if kind == CxFalseNegative {
		x.minimize(cx)
	}
	x.rep.Counterexamples = append(x.rep.Counterexamples, fmt.Sprintf("%s: %s", kind, cx.Detail))
	if x.onCounterexample != nil {
		x.onCounterexample(cx)
	}
	if x.opt.CounterexampleDir == "" {
		return nil
	}
	path, err := cx.WriteDir(x.opt.CounterexampleDir, len(x.rep.Counterexamples))
	if err != nil {
		return err
	}
	x.opt.logf("counterexample written: %s", path)
	return nil
}

// minimize greedily shrinks a false-negative schedule: drop one injection
// at a time (then empty trailing cycles) while the replayed state still
// has a ground-truth deadlock that the detector misses.
func (x *Explorer) minimize(cx *Counterexample) {
	current := cloneSchedule(cx.Schedule)
	for {
		shrunk := false
		for c := 0; c < len(current) && !shrunk; c++ {
			for k := 0; k < len(current[c]); k++ {
				cand := cloneSchedule(current)
				cand[c] = append(append([]int(nil), current[c][:k]...), current[c][k+1:]...)
				if gt := x.cw.stillMisses(cand); gt != nil {
					current, shrunk = cand, true
					cx.GT = gt
					break
				}
			}
		}
		// Trim trailing injection-free cycles.
		for len(current) > 0 && len(current[len(current)-1]) == 0 {
			cand := current[:len(current)-1]
			gt := x.cw.stillMisses(cand)
			if gt == nil {
				break
			}
			current, shrunk = cand, true
			cx.GT = gt
		}
		if !shrunk {
			break
		}
	}
	cx.Schedule = current
	if e, err := x.cw.materialize(current); err == nil {
		cx.Snap = e.snap
	}
}

// journalState is the crash-resume image: enough to rebuild the explorer
// exactly (frontier entries are stored as schedules and re-materialized by
// deterministic replay on resume). Canon is the canonical format
// (sim.CanonFormat) the visited hashes were made in.
type journalState struct {
	Digest   string
	Canon    string
	Spec     Spec
	Visited  [][32]byte
	Frontier []journalEntry
	Report   Report
}

type journalEntry struct {
	Schedule [][]int
	Used     uint32
}

// writeJournal writes the committer's state. The visited hashes go in commit
// order, the serial DFS order at any P, so a run writes the same bytes every
// time and at any P.
func (x *Explorer) writeJournal() error {
	js := &journalState{
		Digest: x.digest,
		Canon:  sim.CanonFormat,
		Spec:   x.spec,
		Report: *x.rep,
	}
	js.Visited = make([][32]byte, 0, x.visited.len())
	x.visited.each(func(_ int, h *[32]byte) { js.Visited = append(js.Visited, *h) })
	js.Frontier = make([]journalEntry, len(x.items))
	for i, it := range x.items {
		js.Frontier[i] = journalEntry{Schedule: it.link.slice(), Used: it.used}
	}
	return checkpoint.WriteFileValue(x.opt.Journal, js)
}

// Resume rebuilds an explorer from a journal written by a previous run
// with the same spec (enforced via the config digest) and continues it. A
// journal whose visited hashes were made in another canonical format would
// match no state, so it is refused.
func Resume(path string, opt Options) (*Explorer, error) {
	js, err := checkpoint.ReadFileValue[journalState](path)
	if err != nil {
		return nil, err
	}
	if js.Canon != sim.CanonFormat {
		return nil, fmt.Errorf("modelcheck: journal %s hashes its visited states in canonical format %q, this build in %q: explore again", path, js.Canon, sim.CanonFormat)
	}
	x, e, err := newExplorer(js.Spec, opt)
	if err != nil {
		return nil, err
	}
	e.Close()
	if x.digest, err = sim.ConfigDigest(x.cfg); err != nil {
		return nil, err
	}
	if x.digest != js.Digest {
		return nil, fmt.Errorf("modelcheck: journal written with config %q, spec builds %q", js.Digest, x.digest)
	}
	rep := js.Report
	x.rep = &rep
	x.rep.BudgetTruncated = false
	x.rep.Exhausted = false
	for _, h := range js.Visited {
		x.visited.add(h)
	}
	x.opt.logf("resuming: %d visited states, %d frontier schedules", len(js.Visited), len(js.Frontier))
	for _, je := range js.Frontier {
		en, err := x.cw.materialize(je.Schedule)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: re-materialize frontier schedule: %w", err)
		}
		x.stack = append(x.stack, en)
	}
	return x, nil
}

func containsID(ids []int64, id int64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func cloneSchedule(s [][]int) [][]int {
	out := make([][]int, len(s))
	for i, c := range s {
		out[i] = append([]int(nil), c...)
	}
	return out
}
