package modelcheck

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedCounterexamples replays every counterexample committed under
// testdata/counterexamples. Each file documents a checker failure found by
// a past exploration; Replay returns nil only when the recorded failure no
// longer reproduces (for false negatives: the detector now fires). An empty
// corpus passes vacuously — that is the good outcome.
func TestCommittedCounterexamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "counterexamples", "*.wncp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			cx, err := ReadCounterexample(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			t.Logf("replaying %s counterexample:\n%s", cx.Kind, cx.String())
			if err := cx.Replay(); err != nil {
				t.Errorf("still fails: %v", err)
			}
		})
	}
}

// TestCounterexampleRoundTrip pins the persistence format: a synthetic-miss
// exploration dumps at least one counterexample file, the file loads back,
// and its recorded state replays to the identical canonical hash. The
// Replay must REPORT the (synthetic) miss as still failing: the detector
// genuinely fires on this deadlock, but a dumped false-negative recording a
// detectable deadlock replays as "fixed" — so instead assert the dump's
// internal consistency directly.
func TestCounterexampleRoundTrip(t *testing.T) {
	spec := RingSpec()
	spec.MaxStates = 4000
	dir := t.TempDir()
	x, err := New(spec, Options{SyntheticMiss: true, CounterexampleDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalseNegatives == 0 {
		t.Fatalf("synthetic-miss run reported no false negatives:\n%s", rep.Format())
	}
	files, err := filepath.Glob(filepath.Join(dir, "cx-*-false-negative.wncp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no counterexample files dumped (err=%v)", err)
	}
	cx, err := ReadCounterexample(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if cx.Kind != CxFalseNegative || len(cx.GT) == 0 || cx.Snap == nil {
		t.Fatalf("malformed counterexample: kind=%s gt=%v snap=%v", cx.Kind, cx.GT, cx.Snap != nil)
	}
	if s := cx.String(); !strings.HasPrefix(s, "false-negative: ") || !strings.Contains(s, fmt.Sprintf("ground-truth deadlocked: %v\n", cx.GT)) ||
		!strings.Contains(s, ": inject ") {
		t.Errorf("the summary names no kind, ground truth or injection:\n%s", s)
	}
	// The synthetic miss records a deadlock the real detector catches, so
	// Replay — which checks hash identity, oracle agreement, and then the
	// real detector — must report it fixed.
	if err := cx.Replay(); err != nil {
		t.Fatalf("replay of a synthetic miss should pass (detector really fires): %v", err)
	}
}

// TestCounterexampleString: the summary names the kind and detail, the ground
// truth and every injection of the schedule with its cycle, skipping cycles
// that inject nothing.
func TestCounterexampleString(t *testing.T) {
	cx := &Counterexample{
		Kind:     CxFalseNegative,
		Detail:   "no recovery",
		Spec:     RingSpec(),
		Schedule: [][]int{{0}, nil, {1, 3}},
		GT:       []int64{2, 5},
	}
	want := "false-negative: no recovery\n" +
		"ground-truth deadlocked: [2 5]\n" +
		"schedule (3 cycles):\n" +
		"  cycle   0: inject 0->2 len 6\n" +
		"  cycle   2: inject 1->3 len 6\n" +
		"  cycle   2: inject 3->1 len 6\n"
	if got := cx.String(); got != want {
		t.Errorf("summary:\n%s\nwant:\n%s", got, want)
	}
}
