package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"strings"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// gobRoundTrip pushes a snapshot through its wire encoding and back, so every
// restore in this file exercises exactly what a checkpoint file would carry
// (the checkpoint package adds framing and a CRC around the same gob payload).
func gobRoundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out Snapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return &out
}

// snapshotAt runs cfg at the given worker count up to cycle snapAt, feeding
// events into tap, and returns the engine's snapshot after a gob round trip.
func snapshotAt(t *testing.T, cfg Config, workers int, snapAt int64, tap *eventTap) *Snapshot {
	t.Helper()
	cfg.Workers = workers
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetListener(tap)
	for e.Now() < snapAt {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at cycle %d: %v", snapAt, err)
	}
	return gobRoundTrip(t, snap)
}

// recordsAt is snapshotAt with every derived suffix spelt out into records
// (spellOut): what an engine that does not derive would have written, for the
// tests that need messages waiting as records.
func recordsAt(t *testing.T, cfg Config, snapAt int64) *Snapshot {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for e.Now() < snapAt {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at cycle %d: %v", snapAt, err)
	}
	return gobRoundTrip(t, e.spellOut(snap))
}

// runResumed snapshots cfg at snapWorkers after snapAt cycles, restores the
// snapshot into a fresh engine at resumeWorkers, runs it to completion and
// returns the summary, the concatenated (pre + post restore) event stream,
// and the final all-time counters — directly comparable to runTraced.
func runResumed(t *testing.T, cfg Config, snapWorkers, resumeWorkers int, snapAt int64) (stats.Result, []trace.Event, [6]int64) {
	t.Helper()
	tap := &eventTap{}
	snap := snapshotAt(t, cfg, snapWorkers, snapAt, tap)

	cfg.Workers = resumeWorkers
	e, err := RestoreEngine(cfg, snap)
	if err != nil {
		t.Fatalf("restore at workers=%d: %v", resumeWorkers, err)
	}
	defer e.Close()
	if got := e.Now(); got != snapAt {
		t.Fatalf("restored engine resumed at cycle %d, snapshot taken at %d", got, snapAt)
	}
	e.SetListener(tap)
	r := e.Run()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated at end of resumed run: %v", err)
	}
	counters := [6]int64{
		e.Generated(), e.Delivered(), e.Recovered(),
		e.Aborted(), e.Retried(), e.Dropped(),
	}
	return r, tap.events, counters
}

// TestSnapshotResumeEquivalence is the checkpoint determinism contract: a run
// snapshotted at an arbitrary mid-run cycle and resumed in a fresh process
// image (here: a fresh engine built from the gob-round-tripped snapshot) must
// reproduce the uninterrupted run bit for bit — the same summary, the same
// counters, and the same trace event stream. The worker-count combinations
// pin the cross-worker clause: a snapshot taken at any Workers value restores
// at any other, because the snapshot carries only worker-independent state.
func TestSnapshotResumeEquivalence(t *testing.T) {
	combos := []struct{ snapW, resumeW int }{
		{1, 1}, {1, 4}, {4, 1}, {2, 2}, {4, 4},
	}
	for name, cfg := range equivalenceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			baseRes, _, baseEvents, baseCounters := runTraced(t, cfg, 1)
			if len(baseEvents) == 0 {
				t.Fatal("golden run emitted no events; scenario is vacuous")
			}
			// One snapshot point in warmup-heavy early traffic, one deep in
			// the measurement window with recoveries/faults in flight, and
			// one in the drain window, where generation has stopped but
			// in-flight messages still settle into the measured result.
			snapAts := []int64{1500, cfg.TotalCycles() / 2, cfg.TotalCycles() - cfg.DrainCycles/2}
			for _, snapAt := range snapAts {
				for _, w := range combos {
					res, events, counters := runResumed(t, cfg, w.snapW, w.resumeW, snapAt)
					if res != baseRes {
						t.Errorf("snap@%d %d→%d: result diverged:\n got  %+v\n want %+v",
							snapAt, w.snapW, w.resumeW, res, baseRes)
					}
					if counters != baseCounters {
						t.Errorf("snap@%d %d→%d: counters diverged: got %v want %v",
							snapAt, w.snapW, w.resumeW, counters, baseCounters)
					}
					if len(events) != len(baseEvents) {
						t.Errorf("snap@%d %d→%d: %d events, golden emitted %d",
							snapAt, w.snapW, w.resumeW, len(events), len(baseEvents))
						continue
					}
					for i := range events {
						if events[i] != baseEvents[i] {
							t.Errorf("snap@%d %d→%d: event %d diverged:\n got  %+v\n want %+v",
								snapAt, w.snapW, w.resumeW, i, events[i], baseEvents[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestSnapshotDoesNotPerturb proves Snapshot is a pure read: an engine that
// is snapshotted mid-run and then keeps going matches the never-snapshotted
// golden run exactly.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	cfg := equivalenceConfigs()["saturated-recovery"]
	baseRes, _, baseEvents, _ := runTraced(t, cfg, 1)

	cfg.Workers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tap := &eventTap{}
	e.SetListener(tap)
	for e.Now() < cfg.TotalCycles() {
		e.Step()
		if e.Now()%1000 == 0 {
			if _, err := e.Snapshot(); err != nil {
				t.Fatalf("snapshot at cycle %d: %v", e.Now(), err)
			}
		}
	}
	e.FlushMetrics()
	if r := e.Collector().Result(); r != baseRes {
		t.Errorf("snapshotting perturbed the run:\n got  %+v\n want %+v", r, baseRes)
	}
	if len(tap.events) != len(baseEvents) {
		t.Errorf("snapshotting changed the event count: %d vs %d", len(tap.events), len(baseEvents))
	}
}

// TestSnapshotConfigMismatch pins that a snapshot only restores into the
// configuration that produced it: any divergence outside the worker count is
// rejected with ErrSnapshotConfig before any state is loaded.
func TestSnapshotConfigMismatch(t *testing.T) {
	cfg := QuickConfig()
	snap := snapshotAt(t, cfg, 1, 500, &eventTap{})

	bad := cfg
	bad.Rate = cfg.Rate * 2
	if _, err := RestoreEngine(bad, snap); !errors.Is(err, ErrSnapshotConfig) {
		t.Errorf("rate mismatch: got %v, want ErrSnapshotConfig", err)
	}

	// Workers is explicitly excluded from the digest.
	ok := cfg
	ok.Workers = 4
	e, err := RestoreEngine(ok, snap)
	if err != nil {
		t.Fatalf("worker-count change must restore cleanly: %v", err)
	}
	e.Close()
}

// TestSnapshotRejectsCorruptState pins that structurally valid but internally
// inconsistent snapshots fail loudly with ErrSnapshotInvalid instead of
// producing a quietly wrong engine.
func TestSnapshotRejectsCorruptState(t *testing.T) {
	cfg := equivalenceConfigs()["saturated-recovery"]
	pristine := recordsAt(t, cfg, 2000) // a queue reference to corrupt needs a record

	corrupt := func(name string, mutate func(s *Snapshot)) {
		t.Helper()
		s := gobRoundTrip(t, pristine) // deep copy
		mutate(s)
		if _, err := RestoreEngine(cfg, s); !errors.Is(err, ErrSnapshotInvalid) {
			t.Errorf("%s: got %v, want ErrSnapshotInvalid", name, err)
		}
	}

	corrupt("dangling queue reference", func(s *Snapshot) {
		for i := range s.Nodes {
			if len(s.Nodes[i].Queue) > 0 {
				s.Nodes[i].Queue[0] = 1 << 40
				return
			}
		}
		t.Skip("no queued messages at snapshot point")
	})
	corrupt("duplicate message id", func(s *Snapshot) {
		if len(s.Messages) < 2 {
			t.Skip("too few in-flight messages")
		}
		s.Messages[1].ID = s.Messages[0].ID
	})
	corrupt("node count mismatch", func(s *Snapshot) {
		s.Nodes = s.Nodes[:len(s.Nodes)-1]
	})
	corrupt("stats geometry mismatch", func(s *Snapshot) {
		s.Stats.Nodes = s.Stats.Nodes + 3
	})
}

// TestSnapshotMetricsContinuity checks the documented restore ordering for
// metrics (EnableMetrics, then Registry.Restore from the snapshot): every
// deterministic metric — counters, gauges, and the state-derived histograms —
// finishes a resumed run with exactly the value of the uninterrupted run.
// Wall-clock timing histograms (*_ns) are inherently nondeterministic and are
// excluded.
func TestSnapshotMetricsContinuity(t *testing.T) {
	cfg := equivalenceConfigs()["bursty-alo"]
	cfg.Workers = 1
	const every = 100
	const snapAt = 2500

	// Golden: uninterrupted run with metrics on.
	golden, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	goldenReg := metrics.NewRegistry()
	golden.EnableMetrics(goldenReg, every)
	golden.Run()

	// Interrupted: run to snapAt, snapshot (captures the registry), restore,
	// re-enable metrics on a fresh registry and replay the samples into it.
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e1.EnableMetrics(metrics.NewRegistry(), every)
	for e1.Now() < snapAt {
		e1.Step()
	}
	snap, err := e1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("snapshot of a metrics-enabled engine carried no samples")
	}
	snap = gobRoundTrip(t, snap)

	e2, err := RestoreEngine(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	reg := metrics.NewRegistry()
	e2.EnableMetrics(reg, every)
	if err := reg.Restore(snap.Metrics); err != nil {
		t.Fatal(err)
	}
	e2.Run()

	compareSamples(t, reg, goldenReg)
}

// compareSamples requires the deterministic series of two registries to be
// equal, sample by sample.
func compareSamples(t *testing.T, gotReg, wantReg *metrics.Registry) {
	t.Helper()
	want := deterministicSamples(wantReg.Snapshot())
	got := deterministicSamples(gotReg.Snapshot())
	if len(got) != len(want) {
		t.Fatalf("metric inventories differ: %d vs %d deterministic samples", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Name != w.Name || g.Value != w.Value || g.Sum != w.Sum || g.N != w.N {
			t.Errorf("metric %q diverged after resume:\n got  value=%v sum=%v n=%d\n want value=%v sum=%v n=%d",
				w.Name, g.Value, g.Sum, g.N, w.Value, w.Sum, w.N)
		}
		for j := range w.Count {
			if g.Count[j] != w.Count[j] {
				t.Errorf("metric %q bucket %d diverged: got %d want %d", w.Name, j, g.Count[j], w.Count[j])
				break
			}
		}
	}
}

// deterministicSamples filters out the wall-clock timing histograms, whose
// observations depend on host scheduling rather than simulation state.
func deterministicSamples(in []metrics.Sample) []metrics.Sample {
	out := in[:0:0]
	for _, s := range in {
		if strings.HasSuffix(s.Name, "_ns") {
			continue
		}
		out = append(out, s)
	}
	return out
}

// TestSnapshotRestoresDrainedChannelOwner pins a hazard the generic
// equivalence combos can miss: an input virtual channel whose head flit has
// moved on while the tail is still upstream has an *empty* buffer but a live
// route and a live owner — the body flits that keep arriving never carry the
// Head flag that rewrites the channel's caches, so a restore that derived them
// only from buffer fronts brought such channels back ownerless (the sweep
// chaos self-test caught this as a post-resume invariant violation). Such a
// buffer holds no flit to name its message, yet that message owns the output
// VC its route claims (ownerOf), so load reserves every empty buffer on a path
// for the path's message. The test scans a saturated run for the first cycle
// exhibiting the hazard, snapshots exactly there, and demands the restored
// engine names the same owners and finishes bit-identical to the
// uninterrupted run.
func TestSnapshotRestoresDrainedChannelOwner(t *testing.T) {
	cfg := equivalenceConfigs()["saturated-recovery"]
	goldRes, _, goldEvents, goldCtr := runTraced(t, cfg, 1)

	cfg.Workers = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tap := &eventTap{}
	e.SetListener(tap)

	// A hazard channel: empty buffer, valid forward route, owner whose path
	// still tracks the channel (its tail has not drained through yet).
	hazards := func(en *Engine) []pathLoc {
		var locs []pathLoc
		for i := range en.nodes {
			nd := &en.nodes[i]
			routes := en.routesOf(nd.id)
			for a, ivc := range en.inOf(nd.id) {
				if !routes[a].valid || routes[a].eject || !ivc.buf.Empty() {
					continue
				}
				m := en.ownerOf(nd.id, en.inVCIndex(routes[a].outPort, routes[a].outVC)) // the routed message
				if m == nil {
					continue
				}
				loc := pathLoc{Node: nd.id, Port: topology.Port(a / cfg.VCs), VC: int8(a % cfg.VCs)}
				if slices.Contains(pathOf(en, m), loc) {
					locs = append(locs, loc)
				}
			}
		}
		return locs
	}

	total := cfg.TotalCycles()
	var locs []pathLoc
	for e.Now() < total {
		if locs = hazards(e); len(locs) != 0 {
			break
		}
		e.Step()
	}
	if len(locs) == 0 {
		t.Fatal("no drained-but-owned channel appeared; the scenario lost its bite")
	}
	snapAt := e.Now()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at cycle %d: %v", snapAt, err)
	}
	snap = gobRoundTrip(t, snap)

	cfg.Workers = 4
	r, err := RestoreEngine(cfg, snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	for _, loc := range locs {
		a := r.inVCIndex(loc.Port, loc.VC)
		rt := r.routesOf(loc.Node)[a]
		got, want := r.ownerOf(loc.Node, r.inVCIndex(rt.outPort, rt.outVC)), e.ownerOf(loc.Node, e.inVCIndex(rt.outPort, rt.outVC))
		if got == nil || got.ID != want.ID || r.inOf(loc.Node)[a].buf.Msg() != got {
			t.Fatalf("cycle %d: restored channel %v routes for %v, want msg %d", snapAt, loc, got, want.ID)
		}
	}

	r.SetListener(tap)
	res := r.Run()
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("invariants after resume at cycle %d: %v", snapAt, err)
	}
	if res != goldRes {
		t.Errorf("result diverged after resume at cycle %d:\n got  %+v\n want %+v", snapAt, res, goldRes)
	}
	ctr := [6]int64{r.Generated(), r.Delivered(), r.Recovered(), r.Aborted(), r.Retried(), r.Dropped()}
	if ctr != goldCtr {
		t.Errorf("counters diverged: got %v want %v", ctr, goldCtr)
	}
	if len(tap.events) != len(goldEvents) {
		t.Fatalf("%d events, golden emitted %d", len(tap.events), len(goldEvents))
	}
	for i := range tap.events {
		if tap.events[i] != goldEvents[i] {
			t.Fatalf("event %d diverged:\n got  %+v\n want %+v", i, tap.events[i], goldEvents[i])
		}
	}
}
