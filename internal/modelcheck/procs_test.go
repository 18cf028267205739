package modelcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"wormnet/internal/checkpoint"
)

// outcome is everything a run leaves behind: the report, every field of it,
// the counterexample files and the journal bytes.
type outcome struct {
	report  string
	cx      map[string][]byte
	journal []byte
	stats   RunStats
}

// explore runs x with a counterexample directory and a journal under dir and
// collects its outcome.
func explore(t *testing.T, x *Explorer, dir string) outcome {
	t.Helper()
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{report: fmt.Sprintf("%+v", *rep), cx: map[string][]byte{}, stats: x.RunStats()}
	files, err := filepath.Glob(filepath.Join(dir, "cx", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if out.cx[filepath.Base(f)], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	if out.journal, err = os.ReadFile(filepath.Join(dir, "journal.wncp")); err != nil {
		t.Fatal(err)
	}
	return out
}

// exploreAt runs spec at GOMAXPROCS procs. resumeAt, when positive, makes it a
// crash-resume: the run is cut at spec's budget, its journal's budget raised
// to resumeAt and the exploration resumed from it.
func exploreAt(t *testing.T, procs int, spec Spec, synthetic bool, resumeAt int) outcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	dir := t.TempDir()
	opt := Options{
		Journal:           filepath.Join(dir, "journal.wncp"),
		CounterexampleDir: filepath.Join(dir, "cx"),
		SyntheticMiss:     synthetic,
	}
	x, err := New(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := explore(t, x, dir)
	if resumeAt == 0 {
		return out
	}
	cut := out
	js, err := checkpoint.ReadFileValue[journalState](opt.Journal)
	if err != nil {
		t.Fatal(err)
	}
	js.Spec.MaxStates = resumeAt
	if err := checkpoint.WriteFileValue(opt.Journal, js); err != nil {
		t.Fatal(err)
	}
	if x, err = Resume(opt.Journal, opt); err != nil {
		t.Fatal(err)
	}
	out = explore(t, x, dir)
	out.report = cut.report + "\nresumed: " + out.report
	out.journal = append(cut.journal, out.journal...)
	out.stats.DonatedStates += cut.stats.DonatedStates
	return out
}

// procsCase is one exploration of TestExplorerSameAtAnyProcs.
type procsCase struct {
	name      string
	spec      Spec
	synthetic bool
	resumeAt  int
	big       bool // left out under the race detector, whose minutes go to the rest
}

// TestExplorerSameAtAnyProcs is the parallel explorer's contract: at
// GOMAXPROCS 1, 2 and 4 — one, two and four workers — every case gives the
// same report (every field, Violations and Counterexamples included), the same
// counterexample files and the same journal bytes, because the committer
// replays the workers' logs in serial DFS order. The cases cover an exhausted
// tree (two-worm, two-VC), budget-truncated runs with duplicates, deadlock
// states and false positives (the ring at two thresholds and two budgets, the
// two-VC ring), a counterexample at every deadlock state (SyntheticMiss) and a
// journaled run cut at its budget and resumed. At two workers and more, some
// committed state must come from a task an idle worker took from a busy one,
// or the splitting this test is about never happened.
func TestExplorerSameAtAnyProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("eight explorations at three P")
	}
	ring := func(states int, threshold int32) Spec {
		s := boundedRing(states)
		s.Threshold = threshold
		return s
	}
	twoVCModel := twoVC(twoWormSpec())
	twoVCModel.MaxStates = 60000
	twoVCRing := twoVC(RingSpec())
	twoVCRing.MaxStates = 60000
	cases := []procsCase{
		{name: "two-worm", spec: twoWormSpec()},
		{name: "two-VC", spec: twoVCModel, big: true},
		{name: "ring 8000 threshold 32", spec: ring(8000, 32)},
		{name: "ring 8000 threshold 8", spec: ring(8000, 8)},
		{name: "ring 20000", spec: boundedRing(20000)},
		{name: "two-VC ring", spec: twoVCRing, big: true},
		{name: "synthetic miss", spec: boundedRing(4000), synthetic: true},
		{name: "journal resume", spec: boundedRing(1500), resumeAt: 6000},
	}
	if raceEnabled() {
		cases = slices.DeleteFunc(cases, func(c procsCase) bool { return c.big })
	}
	want := make([]outcome, len(cases))
	for i, tc := range cases {
		want[i] = exploreAt(t, 1, tc.spec, tc.synthetic, tc.resumeAt)
		if tc.synthetic && len(want[i].cx) == 0 {
			t.Fatalf("%s: no counterexample files at P=1", tc.name)
		}
	}
	for _, procs := range []int{2, 4} {
		donated := 0
		for i, tc := range cases {
			got := exploreAt(t, procs, tc.spec, tc.synthetic, tc.resumeAt)
			donated += got.stats.DonatedStates
			label := fmt.Sprintf("%s, P=%d", tc.name, procs)
			if got.report != want[i].report {
				t.Errorf("%s: report differs from P=1:\n got  %s\n want %s", label, got.report, want[i].report)
			}
			if len(got.cx) != len(want[i].cx) {
				t.Errorf("%s: %d counterexample files, %d at P=1", label, len(got.cx), len(want[i].cx))
			}
			for name, b := range want[i].cx {
				if !bytes.Equal(got.cx[name], b) {
					t.Errorf("%s: counterexample %s differs from P=1's", label, name)
				}
			}
			if !bytes.Equal(got.journal, want[i].journal) {
				t.Errorf("%s: journal bytes differ from P=1's", label)
			}
		}
		if donated == 0 {
			t.Errorf("P=%d: no committed state came from a donated task: the work was never split", procs)
		}
	}
}

// TestJournalBytesRepeat: two identical journaled runs write the same journal
// bytes — the visited hashes are written in commit order, the serial DFS
// order, not in table order.
func TestJournalBytesRepeat(t *testing.T) {
	a := exploreAt(t, 1, boundedRing(3000), false, 0)
	b := exploreAt(t, 1, boundedRing(3000), false, 0)
	if !bytes.Equal(a.journal, b.journal) {
		t.Fatal("two identical journaled runs wrote different journals")
	}
}

// TestCommitterRestepsStalePrunes: a worker prunes on its own task's states,
// and the committer may skip one of them — with a subtree it found a duplicate
// of a state another task logged first — so a pruned edge can lead to a state
// the committer never kept. The committer then steps that edge again itself
// and hands the state's subtree out as a task. Force it on every edge: every
// task starts out believing it has seen every state of a reference run: the
// two-worm model, exhausted within a 12-cycle horizon. The report must still be
// the reference's, field for field.
func TestCommitterRestepsStalePrunes(t *testing.T) {
	spec := twoWormSpec()
	spec.MaxCycles = 12
	ref := exploreAt(t, 1, spec, false, 0)
	journal := filepath.Join(t.TempDir(), "journal.wncp")
	if err := os.WriteFile(journal, ref.journal, 0o644); err != nil {
		t.Fatal(err)
	}
	js, err := checkpoint.ReadFileValue[journalState](journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			x, err := New(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			x.onTask = func(seen map[[32]byte]struct{}) {
				for _, h := range js.Visited {
					seen[h] = struct{}{}
				}
			}
			rep, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", *rep); got != ref.report {
				t.Errorf("P=%d: report with every prune stale:\n got  %s\n want %s", procs, got, ref.report)
			}
			// Every edge but the duplicates was pruned by a worker and then
			// stepped again by the committer.
			if st := x.RunStats(); st.Discarded < int64(rep.States-1) {
				t.Errorf("P=%d: %d edges discarded for %d states: the prunes were not stale", procs, st.Discarded, rep.States)
			}
		}()
	}
}

// TestTaskLogsBounded pins the backlog bound: a worker with maxBacklog logs
// awaiting commit starts only the task the committer waits for, so a run
// makes at most maxBacklog+1 task logs a worker (the one it fills included)
// however far its work could run ahead, at any P. On the ring at a
// 100 000-state budget two workers made 571 logs and one 67 while nothing
// held a worker back. The reports are the one worker's, field for field.
func TestTaskLogsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("six explorations")
	}
	cases := []struct {
		name string
		spec Spec
	}{{"two-worm", twoWormSpec()}, {"ring 100000", boundedRing(100000)}}
	if raceEnabled() {
		cases[1] = struct {
			name string
			spec Spec
		}{"ring 20000", boundedRing(20000)}
	}
	for _, tc := range cases {
		var want string
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				x, err := New(tc.spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := x.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, st := fmt.Sprintf("%+v", *rep), x.RunStats()
				t.Logf("%s, P=%d: %d states, %d task logs, %d snapshots carved, %d tasks donated",
					tc.name, procs, rep.States, st.Logs, st.Carved, st.Donated)
				if procs == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s, P=%d: report differs from P=1:\n got  %s\n want %s", tc.name, procs, got, want)
				}
				if bound := procs * (maxBacklog + 1); st.Logs > bound {
					t.Errorf("%s, P=%d: %d task logs, bound %d (%d a worker)", tc.name, procs, st.Logs, bound, maxBacklog+1)
				}
			}()
		}
	}
}

// TestPopsBefore: at the first cycle where two schedules differ, the serial
// DFS pops the larger injection mask first (expand pushes it last), and a
// schedule before those it is a prefix of, whether the two share their links
// or were built apart (a materialised frontier).
func TestPopsBefore(t *testing.T) {
	build := func(cycles ...[]int) *sched {
		var s *sched
		var slab []sched
		for _, inj := range cycles {
			s = s.then(inj, &slab)
		}
		return s
	}
	var slab []sched
	root := build([]int{0}, nil)
	a := root.then([]int{1}, &slab)             // mask 2
	b := root.then([]int{0, 1}, &slab)          // mask 3: pops first
	c := root.then(nil, &slab).then(nil, &slab) // mask 0, a cycle deeper
	for _, tc := range []struct {
		name string
		x, y *sched
		want bool
	}{
		{"larger mask first", b, a, true},
		{"smaller mask after", a, b, false},
		{"deeper sibling subtree after", c, a, false},
		{"shallower sibling before a deeper one", a, c, true},
		{"prefix first", root, a, true},
		{"descendant after", a, root, false},
		{"the same schedule built apart", build([]int{0}, nil, []int{1}), a, false},
		{"differing at the first cycle", build([]int{0, 1}), build([]int{0}, nil, []int{1}), true},
		{"nil, the root, before all", nil, c, true},
	} {
		if got := popsBefore(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: popsBefore = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCrewTakesTheEarliestTask: pending tasks are kept in serial-DFS order
// however they were pushed, a worker takes the earliest, and a full worker
// (maxBacklog logs awaiting commit) takes only the task the committer waits
// for.
func TestCrewTakesTheEarliestTask(t *testing.T) {
	var slab []sched
	root := (*sched)(nil).then(nil, &slab)
	mk := func(mask []int) *task { return &task{root: &entry{schedule: root.then(mask, &slab)}} }
	t0, t1, t2, t3 := mk(nil), mk([]int{0}), mk([]int{1}), mk([]int{0, 1})
	c := newCrew()
	c.push(t1, t3, t0, t2)
	w := &worker{}
	for _, want := range []*task{t3, t2} {
		c.mu.Lock()
		got := c.take(w)
		c.mu.Unlock()
		if got != want || w.log == nil {
			t.Fatalf("took %p with log %v, want %p, the earliest pending task", got, w.log != nil, want)
		}
	}
	w.backlog.Store(maxBacklog)
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.take(w); got != nil {
		t.Fatalf("a full worker took a task the committer does not wait for")
	}
	c.want = t1
	if got := c.take(w); got != t1 {
		t.Fatalf("a full worker did not take the task the committer waits for")
	}
}

// TestCrewDiscardsADeadSubtree: when the committer finds a task's root a
// duplicate, the task and every task cut from its subtree are dead, and each
// finished log among them goes back for reuse at once, out of its worker's
// backlog; a worker that finishes a dead task keeps its log, and the tasks it
// cut from it are dead too.
func TestCrewDiscardsADeadSubtree(t *testing.T) {
	var slab []sched
	c, w := newCrew(), &worker{}
	leaf, running := &task{}, &task{}
	mid := &task{done: true, log: &taskLog{by: w, recs: []record{{kind: recExpanded, n: 1}, {kind: recEdge, task: leaf}}}}
	top := &task{done: true, log: &taskLog{by: w, recs: []record{{kind: recExpanded, n: 2}, {kind: recEdge, task: mid}, {kind: recEdge, task: running}}}}
	w.backlog.Store(2)
	c.discard(top)
	for name, tk := range map[string]*task{"top": top, "mid": mid, "leaf": leaf, "running": running} {
		if !tk.dead.Load() {
			t.Errorf("%s task not marked dead", name)
		}
	}
	if len(c.free) != 2 || w.backlog.Load() != 0 || top.log != nil || mid.log != nil {
		t.Errorf("%d logs freed, backlog %d: want both finished logs back and none awaiting", len(c.free), w.backlog.Load())
	}

	// The running task finishes: its log names a task cut from it.
	cut := &task{root: &entry{schedule: (*sched)(nil).then(nil, &slab)}}
	l := &taskLog{recs: []record{{kind: recExpanded, n: 1}, {kind: recEdge, task: cut}}}
	w.log = l
	running.root = &entry{}
	c.finish(w, running, []*task{cut}, false)
	if running.done || w.backlog.Load() != 0 || !cut.dead.Load() {
		t.Errorf("a dead task was published (done %v, backlog %d) or its cut task left alive (%v)",
			running.done, w.backlog.Load(), !cut.dead.Load())
	}
}
