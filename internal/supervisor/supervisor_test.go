package supervisor

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"time"

	"wormnet/internal/baseline"
	"wormnet/internal/sim"
)

// quickConfig is a short healthy scenario.
func quickConfig() sim.Config {
	cfg := sim.QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 500
	return cfg
}

// stallConfig saturates the network without an injection limiter.
func stallConfig() sim.Config {
	cfg := sim.QuickConfig()
	cfg.Rate = 2.0
	cfg.Limiter = baseline.Factories()["none"]
	cfg.LimiterName = "none"
	return cfg
}

// stalledEngine manufactures a genuine livelock: saturate until deadlock
// knots form, stop the sources, and make software recovery never re-inject
// (its delay outlasts the run). The network drains except for the recovered
// messages, which stay in flight forever with zero progress.
func stalledEngine(t *testing.T) *sim.Engine {
	t.Helper()
	cfg := stallConfig()
	cfg.RecoveryDelay = 1 << 40
	e := newEngine(t, cfg)
	for e.Now() < 3000 {
		e.Step()
	}
	e.StopSources()
	return e
}

func newEngine(t *testing.T, cfg sim.Config) *sim.Engine {
	t.Helper()
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// stateRecorder captures the lifecycle transitions.
type stateRecorder struct{ states []State }

func (r *stateRecorder) hook() func(State) {
	return func(s State) { r.states = append(r.states, s) }
}

// TestCompleted pins the happy path: same result as a bare Engine.Run, the
// full cycle range, and a running→stopped state sequence.
func TestCompleted(t *testing.T) {
	cfg := quickConfig()
	want := newEngine(t, cfg).Run()

	var rec stateRecorder
	e := newEngine(t, cfg)
	rep := Run(e, Options{OnState: rec.hook()})
	if rep.Outcome != Completed || rep.Err != nil {
		t.Fatalf("outcome %v err %v, want completed/nil", rep.Outcome, rep.Err)
	}
	if rep.Result != want {
		t.Errorf("supervised result diverged:\n got  %+v\n want %+v", rep.Result, want)
	}
	if rep.StartCycle != 0 || rep.EndCycle != cfg.TotalCycles() {
		t.Errorf("cycle range [%d,%d], want [0,%d]", rep.StartCycle, rep.EndCycle, cfg.TotalCycles())
	}
	if len(rec.states) != 2 || rec.states[0] != Running || rec.states[1] != Stopped {
		t.Errorf("state sequence %v, want [running stopped]", rec.states)
	}
}

// TestStalled pins livelock detection: a permanently deadlocked network is
// classified Stalled (not run to the bitter end), with a final checkpoint.
func TestStalled(t *testing.T) {
	e := stalledEngine(t)
	checkpoints := 0
	rep := Run(e, Options{
		StallWindow: 1000,
		CheckEvery:  128,
		Checkpoint:  func(*sim.Engine) error { checkpoints++; return nil },
	})
	if rep.Outcome != Stalled || !errors.Is(rep.Err, ErrStalled) {
		t.Fatalf("outcome %v err %v, want stalled/ErrStalled", rep.Outcome, rep.Err)
	}
	if rep.EndCycle >= stallConfig().TotalCycles() {
		t.Error("stalled run was not cut short")
	}
	if checkpoints != 1 {
		t.Errorf("%d final checkpoints, want 1", checkpoints)
	}
	if rep.CheckpointErr != nil {
		t.Errorf("final checkpoint error: %v", rep.CheckpointErr)
	}
}

// TestHealthySaturationIsNotStalled guards against false positives: the
// saturated scenario *with* recovery enabled keeps delivering and must
// complete under the same stall window.
func TestHealthySaturationIsNotStalled(t *testing.T) {
	rep := Run(newEngine(t, stallConfig()), Options{StallWindow: 1000, CheckEvery: 128})
	if rep.Outcome != Completed {
		t.Fatalf("outcome %v (err %v), want completed", rep.Outcome, rep.Err)
	}
}

// TestBudgets pins both budget types: each ends the run early with
// DeadlineExceeded, ErrBudget and a final checkpoint.
func TestBudgets(t *testing.T) {
	t.Run("cycles", func(t *testing.T) {
		e := newEngine(t, quickConfig())
		rep := Run(e, Options{CycleBudget: 500, CheckEvery: 64})
		if rep.Outcome != DeadlineExceeded || !errors.Is(rep.Err, ErrBudget) {
			t.Fatalf("outcome %v err %v, want deadline/ErrBudget", rep.Outcome, rep.Err)
		}
		// The budget is enforced at burst granularity.
		if ran := rep.EndCycle - rep.StartCycle; ran < 500 || ran >= 500+64 {
			t.Errorf("ran %d cycles on a 500-cycle budget (check every 64)", ran)
		}
	})
	t.Run("wall", func(t *testing.T) {
		e := newEngine(t, quickConfig())
		rep := Run(e, Options{WallBudget: time.Nanosecond})
		if rep.Outcome != DeadlineExceeded || !errors.Is(rep.Err, ErrBudget) {
			t.Fatalf("outcome %v err %v, want deadline/ErrBudget", rep.Outcome, rep.Err)
		}
	})
}

// TestCrashed pins panic containment: a panic anywhere in the supervised
// section becomes a Crashed report with a *PanicError (stack attached), and
// no final checkpoint is attempted afterwards.
func TestCrashed(t *testing.T) {
	e := newEngine(t, quickConfig())
	calls := 0
	rep := Run(e, Options{
		CheckpointEvery: 200,
		Checkpoint: func(*sim.Engine) error {
			calls++
			panic("disk on fire")
		},
	})
	if rep.Outcome != Crashed {
		t.Fatalf("outcome %v, want crashed", rep.Outcome)
	}
	var pe *PanicError
	if !errors.As(rep.Err, &pe) {
		t.Fatalf("err %v, want *PanicError", rep.Err)
	}
	if pe.Value != "disk on fire" || len(pe.Stack) == 0 {
		t.Errorf("PanicError{%v, %d bytes of stack}", pe.Value, len(pe.Stack))
	}
	if calls != 1 {
		t.Errorf("checkpoint called %d times after panic, want exactly 1 (no post-panic flush)", calls)
	}
}

// TestCheckpointWriteFailure pins that a failing periodic checkpoint crashes
// the run rather than silently continuing without durability.
func TestCheckpointWriteFailure(t *testing.T) {
	e := newEngine(t, quickConfig())
	boom := errors.New("enospc")
	rep := Run(e, Options{
		CheckpointEvery: 200,
		Checkpoint:      func(*sim.Engine) error { return boom },
	})
	if rep.Outcome != Crashed || !errors.Is(rep.Err, boom) {
		t.Fatalf("outcome %v err %v, want crashed wrapping the write error", rep.Outcome, rep.Err)
	}
}

// TestPeriodicCheckpointCadence counts periodic flushes on a healthy run.
func TestPeriodicCheckpointCadence(t *testing.T) {
	cfg := quickConfig()
	e := newEngine(t, cfg)
	var at []int64
	rep := Run(e, Options{
		CheckpointEvery: 500,
		CheckEvery:      64,
		Checkpoint:      func(e *sim.Engine) error { at = append(at, e.Now()); return nil },
	})
	if rep.Outcome != Completed {
		t.Fatalf("outcome %v (err %v)", rep.Outcome, rep.Err)
	}
	want := int(cfg.TotalCycles() / 500)
	if len(at) < want-1 || len(at) > want+1 {
		t.Errorf("%d periodic checkpoints over %d cycles at every=500", len(at), cfg.TotalCycles())
	}
	for i, c := range at {
		if c%64 != 0 && c != cfg.TotalCycles() {
			t.Errorf("checkpoint %d at cycle %d, not on a burst boundary", i, c)
		}
	}
}

// TestInterrupted pins graceful signal shutdown: a SIGUSR1 mid-run yields
// Interrupted, records the signal, flushes a final checkpoint and walks the
// running→draining→stopped states.
func TestInterrupted(t *testing.T) {
	cfg := quickConfig()
	e := newEngine(t, cfg)
	var rec stateRecorder
	fired := false
	finals := 0
	rep := Run(e, Options{
		Signals:         []os.Signal{syscall.SIGUSR1},
		CheckEvery:      32,
		CheckpointEvery: 100,
		OnState:         rec.hook(),
		Checkpoint: func(e *sim.Engine) error {
			if !fired {
				fired = true
				if err := syscall.Kill(os.Getpid(), syscall.SIGUSR1); err != nil {
					t.Fatal(err)
				}
				// Signal delivery is asynchronous (runtime signal goroutine →
				// channel); give it time to land before the next check.
				time.Sleep(100 * time.Millisecond)
			} else {
				finals++ // any call after the signal was raised
			}
			return nil
		},
	})
	if rep.Outcome != Interrupted || rep.Err != nil {
		t.Fatalf("outcome %v err %v, want interrupted/nil", rep.Outcome, rep.Err)
	}
	if rep.Signal != syscall.SIGUSR1 {
		t.Errorf("signal %v, want SIGUSR1", rep.Signal)
	}
	if rep.EndCycle >= cfg.TotalCycles() {
		t.Error("interrupted run was not cut short")
	}
	if finals == 0 {
		t.Error("no checkpoint flushed after the signal")
	}
	n := len(rec.states)
	if n < 3 || rec.states[0] != Running || rec.states[n-2] != Draining || rec.states[n-1] != Stopped {
		t.Errorf("state sequence %v, want running…draining,stopped", rec.states)
	}
}

// TestResumeComposition is the end-to-end robustness story: a run cut off by
// a cycle budget flushes a checkpoint, a fresh engine restores it, and the
// supervised remainder completes with exactly the uninterrupted result —
// at a different worker count than the first half.
func TestResumeComposition(t *testing.T) {
	cfg := quickConfig()
	want := newEngine(t, cfg).Run()

	var snap *sim.Snapshot
	first := newEngine(t, cfg)
	rep := Run(first, Options{
		CycleBudget: cfg.TotalCycles() / 2,
		Checkpoint: func(e *sim.Engine) error {
			s, err := e.Snapshot()
			snap = s
			return err
		},
	})
	if rep.Outcome != DeadlineExceeded || snap == nil {
		t.Fatalf("first half: outcome %v, snapshot %v", rep.Outcome, snap != nil)
	}

	rcfg := cfg
	rcfg.Workers = 4
	second, err := sim.RestoreEngine(rcfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	rep2 := Run(second, Options{StallWindow: 2000})
	if rep2.Outcome != Completed {
		t.Fatalf("second half: outcome %v (err %v)", rep2.Outcome, rep2.Err)
	}
	if rep2.StartCycle != rep.EndCycle {
		t.Errorf("resume started at %d, first half ended at %d", rep2.StartCycle, rep.EndCycle)
	}
	if rep2.Result != want {
		t.Errorf("resumed result diverged:\n got  %+v\n want %+v", rep2.Result, want)
	}
}

// TestNames pins the outcome and state names manifests and health endpoints
// print, and the message of a recovered panic.
func TestNames(t *testing.T) {
	for o, want := range map[Outcome]string{
		Completed: "completed", Stalled: "stalled", DeadlineExceeded: "deadline",
		Crashed: "crashed", Interrupted: "interrupted", Outcome(42): "outcome(42)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
	for s, want := range map[State]string{
		Idle: "idle", Running: "running", Draining: "draining", Stopped: "stopped", State(9): "state(9)",
	} {
		if got := s.StateName(); got != want {
			t.Errorf("State(%d).StateName() = %q, want %q", int32(s), got, want)
		}
	}
	if got := (&PanicError{Value: "disk on fire"}).Error(); got != "supervisor: run panicked: disk on fire" {
		t.Errorf("PanicError.Error() = %q", got)
	}
}
