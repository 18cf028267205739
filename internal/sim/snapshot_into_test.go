package sim

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
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
			for i := range e.nodes { // a backlog of records: larger than any derived one
				if e.nodes[i].sfx != 0 {
					e.spill(&e.nodes[i])
				}
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
	written := decodeFixture(t, "queues fixture", raw)
	e, err := RestoreEngine(saturatedQueuesConfig(), written)
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
		t.Error("SnapshotInto of the restored fixture no longer encodes to the parent commit's file")
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

// TestFreshSnapshotAllocs pins what a new Snapshot of the knee of the default
// 8-ary 3-cube (rate 0.65, no limiter, 2 000 cycles in: 512 nodes, 9 216
// input VCs, about 1 460 messages in the network) allocates: O(nodes), not
// O(VCs + messages). Each per-node and per-VC field is cut from one array;
// what is left is one stream encoding per node (traffic.GenState.PCG). 523
// objects measured, 533 while snapshots stored flit lists, output-VC owners and
// paths, 13 193 while every non-empty VC, node field and path grew a slice of
// its own.
func TestFreshSnapshotAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector allocates: counts are pinned on the plain build")
	}
	cfg := DefaultConfig()
	cfg.Rate = 0.65
	cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 1<<40, 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	const measured = 523
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a fresh snapshot of %d nodes, %d messages in flight: %.0f objects", len(e.nodes), e.InFlight(), allocs)
	if ceiling := measured * 1.05; allocs > ceiling {
		t.Errorf("a fresh snapshot allocates %.0f objects, ceiling %.0f (%d measured + 5 %%)", allocs, ceiling, measured)
	}
}

// TestCarvedSnapshotEncodesAlike pins that carving changes no byte: a new
// snapshot (its slices cut from shared arrays, its empty ones non-nil), the
// same state taken into the storage a later state and the initial state left,
// and the gob round trip of each have one canonical hash and one gob payload,
// the bytes a checkpoint frames. A decoded snapshot's empty slices are nil, so
// a carved one deep-equals another only after a round trip each.
func TestCarvedSnapshotEncodesAlike(t *testing.T) {
	eq := equivalenceConfigs()
	emptyNonNil := false
	for _, name := range []string{"saturated-alo", "faults-storm", "adversarial"} {
		t.Run(name, func(t *testing.T) {
			e, err := New(eq[name])
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			initial, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for e.Now() < 1100 {
				e.Step()
			}
			carved, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for e.Now() < 2000 {
				e.Step()
			}
			later, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(carved); err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Snapshot{later, initial} {
				if err := e.SnapshotInto(s); err != nil {
					t.Fatal(err)
				}
			}

			for _, sn := range carved.Nodes {
				emptyNonNil = emptyNonNil || sn.Queue != nil && len(sn.Queue) == 0
			}

			wantHash, err := carved.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			wantWire, _ := snapBytes(t, carved)
			decoded := gobRoundTrip(t, carved)
			for label, s := range map[string]*Snapshot{
				"carved": carved, "into a later state's storage": later, "into the initial state's storage": initial,
			} {
				for _, form := range []struct {
					how string
					s   *Snapshot
				}{{"", s}, {" after a gob round trip", gobRoundTrip(t, s)}} {
					h, err := form.s.CanonicalHash()
					if err != nil {
						t.Fatal(err)
					}
					if wire, _ := snapBytes(t, form.s); h != wantHash || !bytes.Equal(wire, wantWire) {
						t.Errorf("%s%s: canonical hash or gob payload differs from the carved snapshot's", label, form.how)
					}
				}
				if !reflect.DeepEqual(gobRoundTrip(t, s), decoded) {
					t.Errorf("%s: decodes to another snapshot than the carved one", label)
				}
			}
		})
	}
	if !emptyNonNil {
		t.Error("no carved queue is empty and non-nil: the comparisons show nothing of empty slices")
	}
}
