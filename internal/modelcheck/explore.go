package modelcheck

import (
	"crypto/sha256"
	"fmt"

	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
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

// schedSlab is how many links then cuts from one allocation.
const schedSlab = 64

// then returns s extended by one cycle injecting inject, in a link cut from
// *slab (a new slab when it is full; links are never moved).
func (s *sched) then(inject []int, slab *[]sched) *sched {
	if len(*slab) == cap(*slab) {
		*slab = make([]sched, 0, schedSlab)
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
}

// Explorer enumerates the reachable state space of a Spec.
type Explorer struct {
	spec         Spec
	cfg          sim.Config
	digest       string
	opt          Options
	visited      map[[32]byte]struct{}
	stack        []*entry
	rep          *Report
	sinceJournal int

	// work and aux are the engines Run restores states into (built on first
	// use, dropped when it returns): work executes the actions, aux takes the
	// checks that must not disturb it (round trip, probe, minimisation). A
	// round trip that matches leaves aux holding the new state as Restore
	// loaded it, so the two swap and held records the entry work now holds: its
	// first edge steps from there instead of restoring it again. Any other use
	// of work clears held. restores counts restore calls.
	work, aux *sim.Engine
	held      *entry
	restores  int

	// A visited state is stored, not allocated. A snapshot has one owner, which
	// alone writes it: a frontier entry, until expanded or found a duplicate;
	// then, still in that entry, the spare list entryFrom draws from; roundTrip,
	// checkRoundTrip's scratch; or a Counterexample, which keeps the one it
	// reports (emitCounterexample gives its entry a fresh one). links is the
	// slab schedule links are cut from, injects[m] the catalog indices of mask
	// m. canon (the visited key) and canonRT (the round trip), recovered,
	// onDeadlock: hashing and step scratch.
	spare      []*entry
	links      []sched
	injects    [][]int
	roundTrip  sim.Snapshot
	canon      sim.CanonBuf
	canonRT    sim.CanonBuf
	recovered  []int64
	onDeadlock trace.Listener
	// Test hooks: onCounterexample sees each counterexample as emitted,
	// onRoundTrip each round-trip snapshot before it is compared.
	onCounterexample func(*Counterexample)
	onRoundTrip      func(*entry, *sim.Snapshot)
}

// New prepares an exploration of spec from the initial (empty) state.
func New(spec Spec, opt Options) (*Explorer, error) {
	x, err := newExplorer(spec, opt)
	if err != nil {
		return nil, err
	}
	root, err := x.materialize(nil)
	if err != nil {
		return nil, err
	}
	x.digest = root.snap.Config
	h, err := x.canon.Hash(root.snap)
	if err != nil {
		return nil, err
	}
	x.visited[h] = struct{}{}
	x.rep.States = 1
	x.stack = append(x.stack, root)
	return x, nil
}

func newExplorer(spec Spec, opt Options) (*Explorer, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	return &Explorer{
		spec:    spec,
		cfg:     cfg,
		opt:     opt,
		visited: make(map[[32]byte]struct{}),
		rep:     &Report{Spec: spec, Threshold: spec.Threshold},
	}, nil
}

// materialize replays a schedule from the initial state and builds its
// frontier entry (snapshot, ground truth, occupancy).
func (x *Explorer) materialize(schedule [][]int) (*entry, error) {
	e, err := sim.New(x.cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	var used uint32
	var done *sched
	for _, inj := range schedule {
		for _, i := range inj {
			x.spec.inject(e, i)
			used |= 1 << uint(i)
		}
		e.Step()
		done = done.then(inj, &x.links)
	}
	return x.entryFrom(e, done, used)
}

// entryFrom captures a live engine as a frontier entry (a spare one, or a new
// entry with a new snapshot when the spare list is empty).
func (x *Explorer) entryFrom(e *sim.Engine, schedule *sched, used uint32) (*entry, error) {
	var en *entry
	if n := len(x.spare); n > 0 {
		en, x.spare = x.spare[n-1], x.spare[:n-1]
	} else {
		en = &entry{snap: new(sim.Snapshot)}
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

// recycle puts an entry that nothing restores again on the spare list.
func (x *Explorer) recycle(en *entry) {
	if x.held == en {
		x.held = nil
	}
	en.schedule, en.gt = nil, nil
	x.spare = append(x.spare, en)
}

// Run explores until the frontier drains or the state budget is hit, then
// returns the report. It may be called once per Explorer.
func (x *Explorer) Run() (*Report, error) {
	defer func() {
		for _, e := range []*sim.Engine{x.work, x.aux} {
			if e != nil {
				e.Close() // a sharded engine owns worker goroutines
			}
		}
		x.work, x.aux, x.held = nil, nil, nil
		x.links = nil // the last slab would keep every predecessor of its links alive
	}()
	x.onDeadlock = trace.Func(func(ev trace.Event) {
		if ev.Kind == trace.KindDeadlock {
			x.recovered = append(x.recovered, ev.Msg)
		}
	})
	allUsed := uint32(1)<<uint(len(x.spec.Messages)) - 1
	x.injects = make([][]int, allUsed+1)
	for m := range x.injects {
		for i := range x.spec.Messages {
			if m&(1<<uint(i)) != 0 {
				x.injects[m] = append(x.injects[m], i)
			}
		}
	}
	for len(x.stack) > 0 {
		if x.rep.States >= x.spec.MaxStates {
			x.rep.BudgetTruncated = true
			x.opt.logf("state budget %d reached with %d frontier states pending", x.spec.MaxStates, len(x.stack))
			break
		}
		parent := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		if err := x.expand(parent, allUsed); err != nil {
			return nil, err
		}
		x.recycle(parent) // expanded: nothing restores it again
	}
	if len(x.stack) == 0 {
		x.rep.Exhausted = true
	}
	if x.opt.Journal != "" {
		if err := x.writeJournal(); err != nil {
			return nil, err
		}
	}
	return x.rep, nil
}

// Report returns the report accumulated so far (also valid after Run).
func (x *Explorer) Report() *Report { return x.rep }

// expand generates every successor of parent: one per subset of the
// not-yet-injected catalog (injected at the boundary, catalog order),
// followed by one engine Step.
func (x *Explorer) expand(parent *entry, allUsed uint32) error {
	if parent.used == allUsed && parent.inFlight == 0 && parent.queued == 0 {
		x.rep.Terminals++
		return nil
	}
	depth := parent.schedule.len()
	if int64(depth) >= x.spec.MaxCycles {
		x.rep.HorizonTruncated++
		return nil
	}
	if depth > x.rep.MaxDepth {
		x.rep.MaxDepth = depth
	}
	// The subsets of the not-yet-injected catalog in increasing order: the
	// empty action is pushed first and the all-in action last, so DFS (LIFO)
	// dives into inject-everything-now schedules first and reaches the deep
	// blocked states where detection fires early in the exploration.
	remaining := allUsed &^ parent.used
	for sub := uint32(0); ; sub = (sub - remaining) & remaining {
		if err := x.step(parent, sub); err != nil {
			return err
		}
		if sub == remaining {
			return nil
		}
	}
}

// step executes one action (inject the catalog entries of mask inject, Step
// once) from parent, running the per-state check battery if the successor is
// new.
func (x *Explorer) step(parent *entry, inject uint32) error {
	e := x.work
	if x.held != parent {
		var err error
		if e, err = x.restore(&x.work, parent.snap); err != nil { // restore runs CheckInvariants
			return fmt.Errorf("modelcheck: restore at depth %d: %w", parent.schedule.len(), err)
		}
	}
	x.held = nil
	for _, i := range x.injects[inject] {
		x.spec.inject(e, i)
	}
	x.recovered = x.recovered[:0]
	e.SetListener(x.onDeadlock)
	e.Step()
	e.SetListener(nil)
	x.rep.Edges++

	// FC3D fired on this edge: recoveries of ground-truth-deadlocked
	// messages are true positives, the rest false positives. The parent's
	// ground truth still applies — boundary injections only touch source
	// queues, never in-network state.
	for _, id := range x.recovered {
		if containsID(parent.gt, id) {
			x.rep.TruePositives++
		} else {
			x.rep.FalsePositives++
		}
	}

	link := parent.schedule.then(x.injects[inject], &x.links)
	child, err := x.entryFrom(e, link, parent.used|inject)
	if err != nil {
		return err
	}
	b, err := x.canon.Bytes(child.snap)
	if err != nil {
		return err
	}
	h := sha256.Sum256(b)
	if _, dup := x.visited[h]; dup {
		x.rep.DupEdges++
		x.recycle(child)
		x.links = x.links[:len(x.links)-1] // link was the last one cut
		return nil
	}
	x.visited[h] = struct{}{}
	x.rep.States++

	// Check battery on the newly visited state.
	if err := e.CheckInvariants(); err != nil {
		x.violation(child, "invariants", err.Error())
	}
	if err := e.VerifyInjectionProperty(); err != nil {
		x.violation(child, "alo-property", err.Error())
	}
	if err := x.checkRoundTrip(child, b, h); err != nil {
		x.violation(child, "snapshot-roundtrip", err.Error())
	} else {
		// aux holds child as Restore loaded it and load's CheckInvariants passed
		// it: child's first edge steps from there. e is done with.
		x.work, x.aux, x.held = x.aux, x.work, child
	}
	if len(child.gt) > 0 {
		x.rep.DeadlockStates++
		if err := x.probe(child); err != nil {
			return err
		}
	}

	x.stack = append(x.stack, child)
	x.sinceJournal++
	if x.opt.Journal != "" && x.sinceJournal >= x.opt.journalEvery() {
		x.sinceJournal = 0
		if err := x.writeJournal(); err != nil {
			return err
		}
	}
	if x.opt.Log != nil && x.rep.States%5000 == 0 {
		x.opt.logf("%d states, %d edges, %d deadlock states, frontier %d",
			x.rep.States, x.rep.Edges, x.rep.DeadlockStates, len(x.stack))
	}
	return nil
}

// restore loads snap into the scratch engine *slot, building the engine the
// first time the slot is used.
func (x *Explorer) restore(slot **sim.Engine, snap *sim.Snapshot) (*sim.Engine, error) {
	x.restores++
	if *slot != nil {
		return *slot, (*slot).Restore(snap)
	}
	e, err := sim.RestoreEngine(x.cfg, snap)
	*slot = e
	return e, err
}

// checkRoundTrip asserts restore identity: loading the child snapshot into
// aux and re-snapshotting reproduces its canonical bytes, want (whose hash is
// wantHash).
func (x *Explorer) checkRoundTrip(child *entry, want []byte, wantHash [32]byte) error {
	r, err := x.restore(&x.aux, child.snap)
	if err != nil {
		return err
	}
	if err := r.SnapshotInto(&x.roundTrip); err != nil {
		return err
	}
	if x.onRoundTrip != nil {
		x.onRoundTrip(child, &x.roundTrip)
	}
	got, err := x.canonRT.Bytes(&x.roundTrip)
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
// silent run is a false-negative counterexample; a deadlocked message
// getting *delivered* instead refutes the oracle itself (also fatal —
// the two implementations disagree and the checker cannot tell which is
// right without a human).
func (x *Explorer) probe(state *entry) error {
	x.rep.Probes++
	e, err := x.restore(&x.aux, state.snap)
	if err != nil {
		return err
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
	budget := x.spec.probeBudget()
	for i := int64(0); i < budget; i++ {
		e.Step()
		if unsoundID >= 0 {
			x.rep.OracleUnsound++
			return x.emitCounterexample(state, CxOracleUnsound,
				fmt.Sprintf("message %d is oracle-deadlocked but was delivered at cycle %d", unsoundID, e.Now()))
		}
		if detected >= 0 && !x.opt.SyntheticMiss {
			x.rep.Detected++
			return nil
		}
	}
	x.rep.FalseNegatives++
	detail := fmt.Sprintf("no recovery of messages %v within %d probe cycles", state.gt, budget)
	if x.opt.SyntheticMiss && detected >= 0 {
		detail = fmt.Sprintf("synthetic miss: detector signal for message %d suppressed", detected)
	}
	return x.emitCounterexample(state, CxFalseNegative, detail)
}

// violation records a fatal per-state check failure and dumps the state.
func (x *Explorer) violation(state *entry, kind, detail string) {
	x.rep.Violations = append(x.rep.Violations, fmt.Sprintf("%s at depth %d: %s", kind, state.schedule.len(), detail))
	if err := x.emitCounterexample(state, CxKind(kind), detail); err != nil {
		x.rep.Violations = append(x.rep.Violations, fmt.Sprintf("counterexample dump failed: %v", err))
	}
}

// emitCounterexample minimizes (for deadlock-probe failures) and persists
// a replayable counterexample, recording it in the report.
func (x *Explorer) emitCounterexample(state *entry, kind CxKind, detail string) error {
	cx := &Counterexample{
		Kind:     kind,
		Detail:   detail,
		Digest:   x.digest,
		Spec:     x.spec,
		Schedule: state.schedule.slice(),
		GT:       state.gt,
		Snap:     state.snap,
	}
	// cx keeps the snapshot: the entry, to be expanded and then recycled, gets a
	// fresh one by replay, as a resumed frontier does.
	fresh, err := x.materialize(cx.Schedule)
	if err != nil {
		return err
	}
	state.snap = fresh.snap
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
				if gt := x.stillMisses(cand); gt != nil {
					current, shrunk = cand, true
					cx.GT = gt
					break
				}
			}
		}
		// Trim trailing injection-free cycles.
		for len(current) > 0 && len(current[len(current)-1]) == 0 {
			cand := current[:len(current)-1]
			gt := x.stillMisses(cand)
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
	if e, err := x.materialize(current); err == nil {
		cx.Snap = e.snap
	}
}

// stillMisses replays a candidate schedule and reports whether it still
// reproduces the failure: a ground-truth deadlock the probe (under the
// same detector policy, including SyntheticMiss) does not detect. Returns
// the deadlocked set, or nil if the candidate no longer fails.
func (x *Explorer) stillMisses(schedule [][]int) []int64 {
	st, err := x.materialize(schedule)
	if err != nil || len(st.gt) == 0 {
		return nil
	}
	e, err := x.restore(&x.aux, st.snap)
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
	budget := x.spec.probeBudget()
	for i := int64(0); i < budget; i++ {
		e.Step()
		if detected && !x.opt.SyntheticMiss {
			return nil
		}
	}
	return st.gt
}

// journalState is the crash-resume image: enough to rebuild the explorer
// exactly (frontier entries are stored as schedules and re-materialized by
// deterministic replay on resume).
type journalState struct {
	Digest   string
	Spec     Spec
	Visited  [][32]byte
	Frontier []journalEntry
	Report   Report
}

type journalEntry struct {
	Schedule [][]int
	Used     uint32
}

func (x *Explorer) writeJournal() error {
	js := &journalState{
		Digest: x.digest,
		Spec:   x.spec,
		Report: *x.rep,
	}
	js.Visited = make([][32]byte, 0, len(x.visited))
	for h := range x.visited {
		js.Visited = append(js.Visited, h)
	}
	js.Frontier = make([]journalEntry, len(x.stack))
	for i, en := range x.stack {
		js.Frontier[i] = journalEntry{Schedule: en.schedule.slice(), Used: en.used}
	}
	return checkpoint.WriteFileValue(x.opt.Journal, js)
}

// Resume rebuilds an explorer from a journal written by a previous run
// with the same spec (enforced via the config digest) and continues it.
func Resume(path string, opt Options) (*Explorer, error) {
	js, err := checkpoint.ReadFileValue[journalState](path)
	if err != nil {
		return nil, err
	}
	x, err := newExplorer(js.Spec, opt)
	if err != nil {
		return nil, err
	}
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
		x.visited[h] = struct{}{}
	}
	x.opt.logf("resuming: %d visited states, %d frontier schedules", len(js.Visited), len(js.Frontier))
	for _, je := range js.Frontier {
		en, err := x.materialize(je.Schedule)
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
