//go:build unix

package sim

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// cpuTime is the CPU time, user plus system, the process has used so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestHandoffIdleEngineIsQuiet pins the third stage of await: an engine
// nobody steps costs nothing. Every worker of an unstepped Workers=2 engine
// must report parked within 100 ms, and over the following 200 ms the whole
// process must use under 20 ms of CPU (a worker that kept spinning or
// yielding would use 200).
func TestHandoffIdleEngineIsQuiet(t *testing.T) {
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	runtime.GOMAXPROCS(2)

	cfg := QuickConfig()
	cfg.Workers = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.par.workers) != 1 {
		t.Fatalf("%d workers, want 1", len(e.par.workers))
	}
	for deadline := time.Now().Add(100 * time.Millisecond); !allParked(e); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker not parked 100 ms after New")
		}
	}
	before := cpuTime(t)
	time.Sleep(200 * time.Millisecond)
	if used := cpuTime(t) - before; used >= 20*time.Millisecond {
		t.Errorf("idle engine: process used %v of CPU in 200 ms, want < 20 ms", used)
	}
	e.Step() // and it still wakes
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
