package modelcheck

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
)

// boundedDefault returns DefaultSpec with a test-sized state budget.
func boundedDefault(states int) Spec {
	s := DefaultSpec()
	s.MaxStates = states
	return s
}

// boundedRing returns RingSpec with a test-sized state budget.
func boundedRing(states int) Spec {
	s := RingSpec()
	s.MaxStates = states
	return s
}

// TestDefaultSpecExploration runs the issue's canonical 2-ary 2-cube model
// under a CI-sized budget: no checker failure of any kind, and — a model
// property worth pinning — no reachable deadlock, because every 2-ary hop
// is minimal in both ring directions so TFAR always has an escape channel.
func TestDefaultSpecExploration(t *testing.T) {
	x, err := New(boundedDefault(12000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("exploration failed:\n%s", rep.Format())
	}
	if rep.States != 12000 {
		t.Fatalf("States = %d, want the full 12000 budget", rep.States)
	}
	if rep.DeadlockStates != 0 {
		t.Errorf("2-ary 2-cube reached %d deadlock states; both-directions-minimal escape should prevent all", rep.DeadlockStates)
	}
	if rep.FalseNegatives != 0 || rep.OracleUnsound != 0 || len(rep.Violations) != 0 {
		t.Errorf("failures: %d FN, %d unsound, %v", rep.FalseNegatives, rep.OracleUnsound, rep.Violations)
	}
}

// TestRingSpecReachesDeadlock is the heart of the lane: the 4-ary ring
// model reaches genuine cyclic deadlocks, the oracle flags them, and FC3D
// detects every single one — zero false negatives over every reachable
// deadlock state in the budget — with the same report at one shard and two.
func TestRingSpecReachesDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2} {
		x, err := New(boundedRing(20000), Options{})
		if err != nil {
			t.Fatal(err)
		}
		x.cfg.Workers = workers
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("workers=%d: exploration failed:\n%s", workers, rep.Format())
		}
		if rep.DeadlockStates == 0 {
			t.Fatalf("ring model reached no deadlock states — the FN probe was never exercised:\n%s", rep.Format())
		}
		if rep.Detected != rep.Probes {
			t.Errorf("workers=%d: detected %d of %d probes", workers, rep.Detected, rep.Probes)
		}
		if rep.TruePositives == 0 {
			t.Errorf("workers=%d: no true-positive recoveries observed during expansion", workers)
		}
		checkCounts(t, fmt.Sprintf("ring, workers=%d", workers), rep, ringCounts)
		raw, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(&back, rep) {
			t.Errorf("workers=%d: the JSON report reads back as %+v (%v), want %+v", workers, back, err, *rep)
		}
	}
}

// TestExplorationDeterministic pins that two explorations of the same spec
// produce identical reports — the foundation for counterexample replay and
// journal resume.
func TestExplorationDeterministic(t *testing.T) {
	run := func() string {
		x, err := New(boundedRing(5000), Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d", rep.States, rep.Edges, rep.DupEdges,
			rep.Terminals, rep.DeadlockStates, rep.Detected, rep.TruePositives, rep.FalsePositives)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical explorations diverged: %s vs %s", a, b)
	}
}

// TestSyntheticMissSelfTest proves the checker fails when FC3D and the
// oracle disagree: with the detector signal suppressed in probes, every
// ground-truth deadlock must surface as a reported false negative with a
// minimized, replayable counterexample — and the report must say FAILED.
func TestSyntheticMissSelfTest(t *testing.T) {
	dir := t.TempDir()
	x, err := New(boundedRing(4000), Options{SyntheticMiss: true, CounterexampleDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("synthetic miss not reported as failure:\n%s", rep.Format())
	}
	if rep.FalseNegatives == 0 {
		t.Fatalf("synthetic miss produced no false negatives:\n%s", rep.Format())
	}
	if len(rep.Counterexamples) != int(rep.FalseNegatives) {
		t.Errorf("%d false negatives but %d counterexample summaries", rep.FalseNegatives, len(rep.Counterexamples))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.wncp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no counterexample files dumped")
	}
	// Minimization: the dumped schedule must still reproduce a ground-truth
	// deadlock, and no single injection can be dropped from it.
	cx, err := ReadCounterexample(files[0])
	if err != nil {
		t.Fatal(err)
	}
	injections := 0
	for _, cyc := range cx.Schedule {
		injections += len(cyc)
	}
	if injections == 0 || injections > len(cx.Spec.Messages) {
		t.Errorf("minimized schedule has %d injections (catalog %d)", injections, len(cx.Spec.Messages))
	}
}

// TestSchedMatchesSlices pins the linked schedule against the [][]int it
// replaced: cycle by cycle it materialises to the same slices and to the same
// journal bytes, and siblings extending one parent do not disturb each other.
func TestSchedMatchesSlices(t *testing.T) {
	encode := func(s [][]int) []byte {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(journalEntry{Schedule: s, Used: 5}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var s *sched
	var want [][]int
	if s.len() != 0 || !bytes.Equal(encode(s.slice()), encode(nil)) {
		t.Fatalf("empty schedule: len %d, slice %v", s.len(), s.slice())
	}
	slab := make([]sched, 0, 2) // full after two links: the schedule spans two slabs
	for i, inj := range [][]int{{0, 1}, nil, {2}, nil, nil, {3}} {
		s, want = s.then(inj, &slab), append(want, inj)
		if s.len() != i+1 || !reflect.DeepEqual(s.slice(), want) {
			t.Fatalf("after %d cycles: len %d, slice %v, want %v", i+1, s.len(), s.slice(), want)
		}
		if !bytes.Equal(encode(s.slice()), encode(want)) {
			t.Fatalf("after %d cycles: journal bytes differ", i+1)
		}
	}
	a, b := s.then([]int{4}, &slab), s.then(nil, &slab)
	if got := a.slice(); !reflect.DeepEqual(got[:6], want) || !reflect.DeepEqual(got[6], []int{4}) || b.slice()[6] != nil {
		t.Fatalf("siblings disturbed each other: %v / %v", a.slice(), b.slice())
	}
}

// TestScratchEnginesLiveOnlyDuringRun pins the explorer's engine budget: New
// builds none beyond the root it materialises and starts no goroutine, and Run
// closes and drops the two engines of each of its workers and stops the
// workers — with the engines, at Workers 2, their shard goroutines.
func TestScratchEnginesLiveOnlyDuringRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		x, err := New(boundedRing(400), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if x.cw.work != nil || x.cw.aux != nil || x.crew != nil {
			t.Fatal("New built a scratch engine or a crew")
		}
		x.cfg.Workers = workers // the config digest excludes the worker count
		before := runtime.NumGoroutine()
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		if x.cw.work != nil || x.cw.aux != nil || x.crew != nil || x.items != nil {
			t.Fatal("Run kept a scratch engine, its crew or its frontier")
		}
		// Close has the pool's workers return; it does not wait for them.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines before Run, %d after: the scratch engines' workers leaked",
					workers, before, runtime.NumGoroutine())
			}
			runtime.Gosched()
		}
	}
}

// TestJournalResume pins crash-resume: a budget-truncated journaled run,
// resumed (with the budget raised, as a crash-resume continuation), must
// finish with exactly the report an uninterrupted run produces.
func TestJournalResume(t *testing.T) {
	const small, full = 1500, 6000
	dir := t.TempDir()
	journal := filepath.Join(dir, "explore.wncp")

	x, err := New(boundedRing(small), Options{Journal: journal, JournalEvery: 400})
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !truncated.BudgetTruncated {
		t.Fatalf("run was not budget-truncated:\n%s", truncated.Format())
	}

	// Raise the budget inside the journal (the budgets are exploration
	// parameters, not part of the config digest) and resume.
	js, err := checkpoint.ReadFileValue[journalState](journal)
	if err != nil {
		t.Fatal(err)
	}
	js.Spec.MaxStates = full
	if err := checkpoint.WriteFileValue(journal, js); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(journal, Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	y, err := New(boundedRing(full), Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := y.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Every field: the resumed frontier was re-materialized by replay into
	// snapshots the explorer then recycles like any other, so nothing at all —
	// coverage, depth, verdicts, failure lists — may tell the two runs apart.
	resumed.Spec, direct.Spec = Spec{}, Spec{} // the journalled report keeps the budget it was cut at
	if r, d := fmt.Sprintf("%+v", *resumed), fmt.Sprintf("%+v", *direct); r != d {
		t.Fatalf("resumed run differs from the uninterrupted one:\n resumed %s\n direct  %s", r, d)
	}
}

// TestResumeRejectsForeignJournal pins the digest guard: a journal written
// for one model must not resume under a spec that builds a different
// engine configuration.
func TestResumeRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "explore.wncp")
	x, err := New(boundedRing(500), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	js, err := checkpoint.ReadFileValue[journalState](journal)
	if err != nil {
		t.Fatal(err)
	}
	js.Spec.K = 2
	js.Spec.N = 2
	js.Spec.Messages = DefaultSpec().Messages
	if err := checkpoint.WriteFileValue(journal, js); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(journal, Options{}); err == nil {
		t.Fatalf("foreign journal resumed without error")
	}
}

// TestResumeRejectsOtherCanonFormat pins the hash guard: a journal's visited
// hashes are canonical forms of one format, and under another they would match
// no state, so every state would be explored and counted again. A journal that
// names another format is refused; the run that wrote it reports what it
// journalled.
func TestResumeRejectsOtherCanonFormat(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "explore.wncp")
	x, err := New(boundedRing(500), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	js, err := checkpoint.ReadFileValue[journalState](journal)
	if err != nil {
		t.Fatal(err)
	}
	if js.Canon != sim.CanonFormat || x.Report() != rep || js.Report.States != rep.States {
		t.Fatalf("journal in format %q of %d states; the explorer reports %d", js.Canon, js.Report.States, x.Report().States)
	}
	js.Canon = "wncanon2"
	if err := checkpoint.WriteFileValue(journal, js); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(journal, Options{}); err == nil || !strings.Contains(err.Error(), `canonical format "wncanon2"`) {
		t.Fatalf("a journal of another canonical format: got %v, want it refused by name", err)
	}
}

// TestSpecValidation pins the Spec.Config error surface.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty catalog", func(s *Spec) { s.Messages = nil }},
		{"duplicate source", func(s *Spec) { s.Messages[1].Src = s.Messages[0].Src }},
		{"out of range dst", func(s *Spec) { s.Messages[0].Dst = 99 }},
		{"self addressed", func(s *Spec) { s.Messages[0].Dst = s.Messages[0].Src }},
		{"zero length", func(s *Spec) { s.Messages[0].Length = 0 }},
		{"zero cycles", func(s *Spec) { s.MaxCycles = 0 }},
		{"zero states", func(s *Spec) { s.MaxStates = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpec()
			tc.mutate(&s)
			if _, err := s.Config(); err == nil {
				t.Fatalf("invalid spec accepted")
			}
		})
	}
	if _, err := DefaultSpec().Config(); err != nil {
		t.Fatalf("DefaultSpec rejected: %v", err)
	}
	if _, err := RingSpec().Config(); err != nil {
		t.Fatalf("RingSpec rejected: %v", err)
	}
}

// TestSpecRefusesBudgetPastVisitedSet: a run may end a pop's fan-out minus one
// past its state budget (the budget is checked before each pop), so a budget
// is refused when that overshoot would fill the visited set past what its
// 4-byte positions address, and accepted up to there.
func TestSpecRefusesBudgetPastVisitedSet(t *testing.T) {
	s := DefaultSpec()
	fanOut := 1 << len(s.Messages)
	s.MaxStates = int(maxVisited) + 1 - fanOut
	if _, err := s.Config(); err != nil {
		t.Fatalf("the largest budget the visited set holds was refused: %v", err)
	}
	s.MaxStates++
	if _, err := s.Config(); err == nil || !strings.Contains(err.Error(), "visited set") {
		t.Fatalf("a budget past the visited set's positions: error %v, want a refusal naming the visited set", err)
	}
}

// TestResumeSortedJournal: a journal written with its visited hashes sorted,
// as builds before commit-order journals wrote them, still resumes to the
// report an uninterrupted run gives.
func TestResumeSortedJournal(t *testing.T) {
	const small, full = 1500, 6000
	journal := filepath.Join(t.TempDir(), "explore.wncp")
	x, err := New(boundedRing(small), Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Run(); err != nil {
		t.Fatal(err)
	}
	js, err := checkpoint.ReadFileValue[journalState](journal)
	if err != nil {
		t.Fatal(err)
	}
	byBytes := func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) }
	if slices.IsSortedFunc(js.Visited, byBytes) {
		t.Fatal("the commit-order journal is already sorted: sorting it tests nothing")
	}
	slices.SortFunc(js.Visited, byBytes)
	js.Spec.MaxStates = full
	if err := checkpoint.WriteFileValue(journal, js); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(journal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	y, err := New(boundedRing(full), Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := y.Run()
	if err != nil {
		t.Fatal(err)
	}
	resumed.Spec, direct.Spec = Spec{}, Spec{}
	if r, d := fmt.Sprintf("%+v", *resumed), fmt.Sprintf("%+v", *direct); r != d {
		t.Fatalf("a sorted journal resumed differs from the uninterrupted run:\n resumed %s\n direct  %s", r, d)
	}
}

// TestRunSweep explores the ring at two thresholds: each report is the one a
// direct run at that threshold gives, the journal option is ignored (a journal
// holds one exploration), and FormatSweep prints a row per threshold.
func TestRunSweep(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.wncp")
	var logged int
	results, err := RunSweep(boundedRing(3000), []int32{8, 32}, Options{
		Journal: journal,
		Log:     func(string, ...any) { logged++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Threshold != 8 || results[1].Threshold != 32 {
		t.Fatalf("sweep returned %+v, want thresholds 8 and 32", results)
	}
	for _, sr := range results {
		spec := boundedRing(3000)
		spec.Threshold = sr.Threshold
		x, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := x.Run()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Report.Format() != direct.Format() {
			t.Errorf("threshold %d: sweep report differs from a direct run:\n%s\nvs\n%s",
				sr.Threshold, sr.Report.Format(), direct.Format())
		}
	}
	if logged < 2 {
		t.Errorf("%d log lines, want one per threshold at least", logged)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("a sweep wrote the journal: %v", err)
	}
	table := FormatSweep(results)
	if rows := strings.Count(table, "\n"); rows != 3 {
		t.Errorf("sweep table has %d lines, want a header and two rows:\n%s", rows, table)
	}
}
