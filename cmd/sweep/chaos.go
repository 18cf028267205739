package main

// The chaos self-test: prove, on the actual sweep configuration, that a run
// killed at an arbitrary cycle and resumed from its checkpoint converges to
// the uninterrupted run bit for bit. Each point runs twice — once golden,
// once killed at a pseudo-random cycle, snapshotted through the full
// checkpoint codec (encode → decode), restored at a *different* shard count
// and run to completion — and the two must agree on the summary, the
// all-time counters and the complete trace event stream. Every point does
// this in both directions: one shard to four, and four to one.

import (
	"bytes"
	"fmt"
	"os"

	"wormnet/internal/campaign"
	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// chaosTap records the full lifecycle event stream for comparison.
type chaosTap struct {
	events []trace.Event
}

func (l *chaosTap) Emit(ev trace.Event) { l.events = append(l.events, ev) }

// splitmix64 is the deterministic kill-cycle generator (same algorithm as
// the fault planner's): the kill point must not depend on math/rand's
// unspecified stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// counters collects the engine's all-time totals.
func counters(e *sim.Engine) [6]int64 {
	return [6]int64{e.Generated(), e.Delivered(), e.Recovered(), e.Aborted(), e.Retried(), e.Dropped()}
}

// chaosPoint runs the golden/kill/resume comparison for one point killed on
// shards shards and returns an error describing the first divergence, or nil.
func chaosPoint(pt campaign.Point, shards int) error {
	cfg := pt.Config
	cfg.Workers = shards
	total := cfg.TotalCycles()
	killAt := 1 + int64(splitmix64(cfg.Seed^uint64(pt.Index))%uint64(total-1))

	// Golden: uninterrupted at the same shard count.
	golden, err := sim.New(cfg)
	if err != nil {
		return err
	}
	defer golden.Close()
	goldTap := &chaosTap{}
	golden.SetListener(goldTap)
	goldRes := golden.Run()
	goldCtr := counters(golden)

	// Victim: killed at killAt, state flushed through the real codec.
	victim, err := sim.New(cfg)
	if err != nil {
		return err
	}
	defer victim.Close()
	tap := &chaosTap{}
	victim.SetListener(tap)
	for victim.Now() < killAt {
		victim.Step()
	}
	snap, err := victim.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot at kill cycle %d: %w", killAt, err)
	}
	var wire bytes.Buffer
	if err := checkpoint.Encode(&wire, snap); err != nil {
		return err
	}
	snap, err = checkpoint.Decode(&wire)
	if err != nil {
		return err
	}

	// Resurrected in a "new process": restored at the other shard count to
	// pin that recovery does not depend on the sharding of the dead run.
	rcfg := cfg
	if rcfg.Workers == 1 {
		rcfg.Workers = 4
	} else {
		rcfg.Workers = 1
	}
	revived, err := sim.RestoreEngine(rcfg, snap)
	if err != nil {
		return fmt.Errorf("restore at kill cycle %d: %w", killAt, err)
	}
	defer revived.Close()
	revived.SetListener(tap)
	res := revived.Run()
	if err := revived.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants after resume: %w", err)
	}

	switch {
	case res != goldRes:
		return fmt.Errorf("killed at %d: result diverged\n  got  %+v\n  want %+v", killAt, res, goldRes)
	case counters(revived) != goldCtr:
		return fmt.Errorf("killed at %d: counters diverged: got %v want %v", killAt, counters(revived), goldCtr)
	case len(tap.events) != len(goldTap.events):
		return fmt.Errorf("killed at %d: %d events, golden emitted %d", killAt, len(tap.events), len(goldTap.events))
	}
	for i := range tap.events {
		if tap.events[i] != goldTap.events[i] {
			return fmt.Errorf("killed at %d: event %d diverged:\n  got  %+v\n  want %+v",
				killAt, i, tap.events[i], goldTap.events[i])
		}
	}
	return nil
}

// chaosSelfTest runs chaosPoint for every sweep point, killed on one shard
// and on four, and reports pass/fail per point. Returns the process exit code
// (0 all passed, 1 otherwise).
func chaosSelfTest(points []campaign.Point) int {
	fmt.Printf("chaos self-test: kill + checkpoint-resume vs uninterrupted, %d point(s), shards 1→4 and 4→1\n",
		len(points))
	failed := 0
	for _, pt := range points {
		var err error
		for _, shards := range []int{1, 4} {
			if err = chaosPoint(pt, shards); err != nil {
				err = fmt.Errorf("killed on %d shard(s): %w", shards, err)
				break
			}
		}
		if err != nil {
			failed++
			fmt.Printf("FAIL %s=%s: %v\n", "point", pt.Raw, err)
			continue
		}
		fmt.Printf("PASS point %d (%s)\n", pt.Index, pt.Raw)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "chaos self-test: %d/%d point(s) failed\n", failed, len(points))
		return 1
	}
	fmt.Printf("chaos self-test: all %d point(s) bit-identical after kill+resume\n", len(points))
	return 0
}
