package sim

import (
	"bytes"
	"encoding/gob"
	"os"
	"runtime/debug"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/metrics"
)

// snapBytes returns the two encodings a snapshot is judged by: the gob payload
// a checkpoint frames, and the canonical form the model checker hashes.
func snapBytes(t *testing.T, s *Snapshot) (wire, canon []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	canon, err := s.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), canon
}

// requireSameAsSnapshot snapshots e into dst and requires the bytes a new
// Snapshot() of the same state encodes to. It returns them.
func requireSameAsSnapshot(t *testing.T, label string, e *Engine, dst *Snapshot) (wire, canon []byte) {
	t.Helper()
	fresh, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SnapshotInto(dst); err != nil {
		t.Fatal(err)
	}
	wantWire, wantCanon := snapBytes(t, fresh)
	wire, canon = snapBytes(t, dst)
	if !bytes.Equal(wire, wantWire) {
		t.Errorf("%s: SnapshotInto encodes to %d bytes that differ from Snapshot's %d", label, len(wire), len(wantWire))
	}
	if !bytes.Equal(canon, wantCanon) {
		t.Errorf("%s: SnapshotInto's canonical bytes differ from Snapshot's", label)
	}
	return wire, canon
}

// TestSnapshotIntoMatchesSnapshot is the SnapshotInto contract: whatever the
// destination held — nothing, a larger state of the same engine (stale tails
// in every nested slice), the empty initial state — it encodes, on the wire and
// canonically, to exactly the bytes of a new Snapshot, and it shares no memory
// with the engine: running on changes neither encoding.
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	eq := equivalenceConfigs()
	knee := QuickConfig()
	knee.Rate = 0.65
	rs := restoreScenarios()
	cases := map[string]struct {
		cfg          Config
		small, large int64 // the compared state, and the larger one dirtying the storage
		metrics      bool
	}{
		"knee":          {knee, 400, 3000, false},
		"saturated-alo": {eq["saturated-alo"], 300, 3000, false},
		"lf":            {rs["lf"].cfg, 300, 3000, false},
		"dril":          {rs["dril"].cfg, 300, 3000, false},
		"fault-storm":   {eq["faults-storm"], 1100, 2750, false}, // 2750: links and a router down, retries backing off
		"adversarial":   {eq["adversarial"], 500, 2300, false},   // 2300: mid-flap, rogues storming
		"metrics":       {eq["bursty-alo"], 300, 2500, true},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var fromEmpty Snapshot
			if err := e.SnapshotInto(&fromEmpty); err != nil {
				t.Fatal(err)
			}
			attach := func() {
				if tc.metrics {
					e.EnableMetrics(metrics.NewRegistry(), 64)
				}
			}
			attach()
			for e.Now() < tc.small {
				e.Step()
			}
			small, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for e.Now() < tc.large {
				e.Step()
			}
			var fromLarge Snapshot
			largeWire, _ := requireSameAsSnapshot(t, "large state into a zero value", e, &fromLarge)

			// Back to the smaller state, on the same engine.
			if err := e.Restore(small); err != nil {
				t.Fatal(err)
			}
			attach()
			var zero Snapshot
			wire, canon := requireSameAsSnapshot(t, "into a zero value", e, &zero)
			if len(wire) >= len(largeWire) {
				t.Fatalf("the dirtying state (%d bytes) is no larger than the compared one (%d)", len(largeWire), len(wire))
			}
			requireSameAsSnapshot(t, "into a larger state's storage", e, &fromLarge)
			requireSameAsSnapshot(t, "into the initial state's storage", e, &fromEmpty)
			// Storage of other engines: limiter words, liveness masks and class
			// accounting this one may not have.
			for _, other := range []restoreScenario{rs["lf"], rs["adversarial"]} {
				requireSameAsSnapshot(t, "into another engine's storage", e, snapshotAt(t, other.cfg, 1, other.snapAt, &eventTap{}))
			}

			// The engine moves on; what was stored must not.
			for i := 0; i < 200; i++ {
				e.Step()
			}
			for label, s := range map[string]*Snapshot{"zero": &zero, "larger": &fromLarge, "initial": &fromEmpty} {
				w, c := snapBytes(t, s)
				if !bytes.Equal(w, wire) || !bytes.Equal(c, canon) {
					t.Errorf("%s storage: the snapshot changed when the engine ran on", label)
				}
			}
		})
	}
}

// TestSnapshotIntoQueuesWrittenByParent is the same contract from the PR 14
// fixture: restored from the file, the engine snapshots into dirty storage to
// the bytes of a new Snapshot — and those are the file's.
func TestSnapshotIntoQueuesWrittenByParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/queues_written_by_pr14.gob")
	if err != nil {
		t.Fatal(err)
	}
	var written Snapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&written); err != nil {
		t.Fatal(err)
	}
	e, err := RestoreEngine(saturatedQueuesConfig(), &written)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	later := saturatedQueuesRun(t, 1) // the same run, at its snapshot cycle
	defer later.Close()
	for i := 0; i < 300; i++ {
		later.Step()
	}
	var dirty Snapshot
	if err := later.SnapshotInto(&dirty); err != nil {
		t.Fatal(err)
	}
	wire, _ := requireSameAsSnapshot(t, "restored fixture into a later state's storage", e, &dirty)
	if !bytes.Equal(wire, raw) {
		t.Error("SnapshotInto of the restored fixture no longer encodes to the bytes the parent commit wrote")
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestSnapshotIntoAllocs pins what a steady-state SnapshotInto of the model
// checker's engine allocates: nothing. Generators keep the stream bytes dst
// already holds when the stream has not moved, and stateful limiters append
// their words into dst's own slice, as LF and DRIL rows of the same engine
// show.
func TestSnapshotIntoAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"none", modelConfig()},
		{"lf", modelConfig().WithLimiter("lf", baseline.NewLF())},
		{"dril", modelConfig().WithLimiter("dril", baseline.NewDRIL())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := modelEngineOf(t, tc.cfg)
			defer e.Close()
			var dst Snapshot
			allocs := testing.AllocsPerRun(200, func() {
				if err := e.SnapshotInto(&dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state SnapshotInto: %.0f allocations, want 0", allocs)
			}
		})
	}
}
