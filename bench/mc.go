package main

import (
	"fmt"
	"runtime"
	"time"

	"wormnet/internal/modelcheck"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// pinnedStates is the size of the CI-pinned model's reachable space (the
// modelcheck-smoke job and TestExhaustiveTwoWormModel pin the same number).
const pinnedStates = 18921

// mcSpec is the CI-pinned model: a 2-ary 2-cube, two opposing 6-flit
// diagonal worms, a 40-cycle horizon. The explorer has no randomness, so the
// seed only picks which of the four equivalent catalogs is explored (either
// diagonal, either listing order); every one has the same 18921 states.
func mcSpec(r *run) modelcheck.Spec {
	spec := modelcheck.DefaultSpec()
	a, b := int32(0), int32(3)
	if r.seed&1 == 0 {
		a, b = 1, 2
	}
	if r.seed&2 != 0 {
		a, b = b, a
	}
	spec.Messages = []modelcheck.MsgSpec{{Src: a, Dst: b, Length: 6}, {Src: b, Dst: a, Length: 6}}
	spec.MaxCycles, spec.MaxStates = 40, 25000
	if r.smoke {
		spec.MaxCycles = 20
	}
	return spec
}

// mcRep is one exhaustion.
type mcRep struct {
	newS, runS float64
	report     *modelcheck.Report
	explorer   *modelcheck.Explorer
}

func (m *mcRep) digest() digest {
	rep := m.report
	exhausted := 0.0
	if rep.Exhausted {
		exhausted = 1
	}
	return digest{
		"states": float64(rep.States), "edges": float64(rep.Edges), "dup_edges": float64(rep.DupEdges),
		"terminals": float64(rep.Terminals), "horizon_truncated": float64(rep.HorizonTruncated),
		"max_depth": float64(rep.MaxDepth), "deadlock_states": float64(rep.DeadlockStates),
		"probes": float64(rep.Probes), "true_positives": float64(rep.TruePositives),
		"false_positives": float64(rep.FalsePositives), "exhausted": exhausted,
	}
}

func exhaust(r *run, rec *recorder) (*mcRep, error) {
	root := rec.begin("bench.exhaust", noSpan, 0)
	defer rec.end(root)
	t := time.Now()
	id := rec.begin("modelcheck.New", root, 0)
	x, err := modelcheck.New(mcSpec(r), modelcheck.Options{})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	m := &mcRep{newS: time.Since(t).Seconds(), explorer: x}
	t = time.Now()
	id = rec.begin("modelcheck.Explorer.Run", root, 0)
	m.report, err = x.Run()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	m.runS = time.Since(t).Seconds()
	return m, nil
}

// checkExhaustion applies the model checker's own verdicts.
func checkExhaustion(r *run, m *mcRep) {
	rep := m.report
	r.check(!rep.Failed(), "exploration reported a checker failure:\n%s", rep.Format())
	r.check(rep.Exhausted && !rep.BudgetTruncated, "state space not exhausted (%d states)", rep.States)
	if !r.smoke {
		r.check(rep.States == pinnedStates, "exhausted %d states, pinned %d", rep.States, pinnedStates)
	}
}

// measureMC is the untraced run of mc-exhaust: repetitions of the whole
// exhaustion, an op being one visited state.
func measureMC(r *run, reps int) error {
	if r.smoke {
		reps = 1
	}
	var rates, calib []float64
	var ops int64
	var last *mcRep
	runtime.GC()
	before := mallocs()
	for i := 0; i < reps; i++ {
		m, err := exhaust(r, nil)
		if err != nil {
			return err
		}
		rates = append(rates, float64(m.report.States)/m.runS)
		calib = append(calib, hostCalib())
		ops += int64(m.report.States)
		if last != nil {
			r.check(last.digest().equal(m.digest()), "repetition %d explored something else:%s", i, last.digest().diff(m.digest()))
		}
		last = m
	}
	allocs := mallocs() - before

	// modelcheck.New takes tens of microseconds, too short to time once:
	// each set-up sample is the mean of a batch of fresh explorers. They are
	// timed here, on the heap the exhaustions grew, because on a process's
	// first few megabytes the collector runs every few explorers and the
	// reading is half again as high and twice as scattered.
	const batch = 256
	spec := mcSpec(r)
	setups := make([]float64, 0, setUps)
	for i := 0; i < setUps; i++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := modelcheck.New(spec, modelcheck.Options{}); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t).Seconds()/batch)
	}

	r.setEndToEnd(setups, rates, calib, allocs, ops)

	checkExhaustion(r, last)
	r.checkGolden(ops, last.digest())
	runtime.KeepAlive(last)
	return nil
}

// tracedMC is the traced run of mc-exhaust. The explorer is one call from
// outside, so the spans are its New and its Run; the state-layer costs the
// explorer pays per state are probed on an engine of the same model.
func tracedMC(r *run, _ int) error {
	ref, err := exhaust(r, nil)
	if err != nil {
		return err
	}
	m, err := exhaust(r, r.rec)
	if err != nil {
		return err
	}
	checkExhaustion(r, m)
	r.check(ref.digest().equal(m.digest()), "traced exhaustion explored something else:%s", ref.digest().diff(m.digest()))

	res, rep := r.res, m.report
	res.set("bench.trace_overhead_pct", 100*(1-ref.runS/m.runS))
	res.set("bench.host_calib_ms", hostCalib())
	res.set("modelcheck.states", float64(rep.States))
	res.set("modelcheck.edges", float64(rep.Edges))
	res.set("modelcheck.dup_edge_ratio", float64(rep.DupEdges)/float64(rep.Edges))
	res.set("modelcheck.us_per_state", 1e6*ref.runS/float64(rep.States))
	res.set("modelcheck.new_ms", 1e3*ref.newS)

	// An engine of the model with both worms under way.
	spec := mcSpec(r)
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	t := time.Now()
	e, err := sim.New(cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	res.set("sim.new_ms", 1e3*time.Since(t).Seconds())
	for _, msg := range spec.Messages {
		e.Inject(topology.NodeID(msg.Src), topology.NodeID(msg.Dst), msg.Length)
	}
	for i := 0; i < 6; i++ {
		e.Step()
	}
	res.set("sim.inflight_end", float64(e.InFlight()))
	if err := stateProbes(r, e); err != nil {
		return fmt.Errorf("model engine: %w", err)
	}
	microProbes(r, cfg)
	return nil
}
