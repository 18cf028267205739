package main

import (
	"bytes"
	"fmt"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/metrics"
	"wormnet/internal/routing"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// regView is a registry read from outside the engine, by metric name.
type regView map[string]metrics.Sample

func snapshotRegistry(reg *metrics.Registry) regView {
	v := regView{}
	for _, s := range reg.Snapshot() {
		v[s.Name] = s
	}
	return v
}

// since returns what accumulated after base was taken: counter values and
// histogram sums and counts become differences, gauges keep their reading.
func (v regView) since(base regView) regView {
	out := regView{}
	for name, s := range v {
		b := base[name]
		if s.Kind != metrics.KindGauge {
			s.Value -= b.Value
			s.Sum -= b.Sum
			s.N -= b.N
		}
		out[name] = s
	}
	return out
}

func (v regView) value(name string) float64 { return v[name].Value }

// histMean is the mean observation of a histogram, 0 when it saw none.
func (v regView) histMean(name string) float64 {
	s := v[name]
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// setCycleMetrics reports what the engine's registry says of one cycle: the
// mean host time of each of the five phases from the sim_phase_*_ns timers,
// and the flits moved and injection decisions per cycle over cycles cycles.
func setCycleMetrics(res *result, d regView, cycles float64) {
	for _, phase := range []string{"generate", "inject", "route", "switch", "move"} {
		res.set("sim.phase_"+phase+"_us", d.histMean("sim_phase_"+phase+"_ns")/1e3)
	}
	res.set("sim.flits_per_cycle", d.value("sim_flits_moved_total")/cycles)
	res.set("sim.admitted_per_cycle", d.value("sim_injection_admitted_total")/cycles)
	res.set("sim.denied_per_cycle", d.value("sim_injection_denied_total")/cycles)
}

// setDenyMetrics reports the limiter's useful-outcome ratio (denied over
// decisions) and which of ALO's two rules the denials failed.
func setDenyMetrics(res *result, d regView) {
	admitted, denied := d.value("sim_injection_admitted_total"), d.value("sim_injection_denied_total")
	if admitted+denied > 0 {
		res.set("core.deny_ratio", denied/(admitted+denied))
	}
	if denied > 0 {
		res.set("core.deny_rule_a_share", d.value("sim_injection_deny_rule_a_total")/denied)
		res.set("core.deny_rule_b_share", d.value("sim_injection_deny_rule_b_total")/denied)
	}
}

// stateProbes times the engine-state layer on e's current state: snapshot,
// restore, canonical hash, invariants, and the checkpoint codec. The state
// is the workload's own final state, so its size is the workload's: about
// 1.5 k messages in flight at the knee, two orders more beyond saturation,
// two worms on the model checker's 4-node engine.
func stateProbes(r *run, e *sim.Engine) error {
	const reps = 3
	root := r.rec.begin("bench.stateProbes", noSpan, 0)
	defer r.rec.end(root)
	timed := func(name string, f func()) float64 {
		id := r.rec.begin(name, root, 0)
		defer r.rec.end(id)
		return timeMedian(reps, f)
	}
	var snap *sim.Snapshot
	var err error
	r.res.set("sim.snapshot_ms", 1e3*timed("sim.Snapshot", func() { snap, err = e.Snapshot() }))
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	cfg := e.Config()
	cfg.Workers = 1
	r.res.set("sim.restore_ms", 1e3*timed("sim.RestoreEngine", func() {
		var e2 *sim.Engine
		if e2, err = sim.RestoreEngine(cfg, snap); err == nil {
			e2.Close()
		}
	}))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	var hash [32]byte
	r.res.set("sim.canonical_hash_ms", 1e3*timed("sim.CanonicalHash", func() { hash, err = snap.CanonicalHash() }))
	if err != nil {
		return fmt.Errorf("canonical hash: %w", err)
	}
	r.res.set("sim.check_invariants_ms", 1e3*timed("sim.CheckInvariants", func() { err = e.CheckInvariants() }))
	r.checkErr(err, "invariants on the probed state")

	var buf bytes.Buffer
	enc := timed("checkpoint.Encode", func() {
		buf.Reset()
		err = checkpoint.Encode(&buf, snap)
	})
	if err != nil {
		return fmt.Errorf("checkpoint encode: %w", err)
	}
	mb := float64(buf.Len()) / (1 << 20)
	var back *sim.Snapshot
	dec := timed("checkpoint.Decode", func() { back, err = checkpoint.Decode(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return fmt.Errorf("checkpoint decode: %w", err)
	}
	r.res.set("checkpoint.bytes", float64(buf.Len()))
	r.res.set("checkpoint.encode_mb_per_s", mb/enc)
	r.res.set("checkpoint.decode_mb_per_s", mb/dec)
	backHash, err := back.CanonicalHash()
	r.check(err == nil && backHash == hash, "checkpoint round trip changed the canonical hash (%v)", err)
	return nil
}

// probeSink keeps the micro-probes' results observable.
var probeSink int

// microProbes times the substrate the engine is built from, on the
// workload's own topology: the TFAR routing function over every node pair
// (what sim.New's candidate table is built with), the per-dimension minimal
// direction test beneath it, and a uniform Poisson source per message.
func microProbes(r *run, cfg sim.Config) {
	root := r.rec.begin("bench.microProbes", noSpan, 0)
	defer r.rec.end(root)
	topo := topology.New(cfg.K, cfg.N)
	nodes := topo.Nodes()

	tfar := routing.NewTFAR(topo, cfg.VCs)
	cands := make([]routing.Candidate, 0, 64)
	id := r.rec.begin("routing.Candidates x all pairs", root, 0)
	reps := max(1, (1<<18)/(nodes*nodes))
	sec := timeMedian(3, func() {
		for i := 0; i < reps; i++ {
			for a := 0; a < nodes; a++ {
				for b := 0; b < nodes; b++ {
					cands = tfar.Candidates(topology.NodeID(a), topology.NodeID(b), cands[:0])
					probeSink += len(cands)
				}
			}
		}
	})
	r.rec.end(id)
	r.res.set("routing.candidates_ns", 1e9*sec/float64(reps*nodes*nodes))

	id = r.rec.begin("topology.MinimalDirs", root, 0)
	k := topo.K()
	reps = (1 << 20) / (k * k)
	sec = timeMedian(3, func() {
		for i := 0; i < reps; i++ {
			for a := 0; a < k; a++ {
				for b := 0; b < k; b++ {
					if plus, _ := topo.MinimalDirs(a, b); plus {
						probeSink++
					}
				}
			}
		}
	})
	r.rec.end(id)
	r.res.set("topology.minimal_directions_ns", 1e9*sec/float64(reps*k*k))

	id = r.rec.begin("traffic.Source.Poll", root, 0)
	const messages = 200000
	gen := make([]traffic.Generated, 0, 64)
	t := time.Now()
	src := traffic.NewSource(0, traffic.NewUniform(topo), 1, cfg.MsgLen, r.seed, 1)
	made := 0
	for now := int64(0); made < messages; now += 64 {
		gen = src.Poll(now, gen[:0])
		made += len(gen)
	}
	sec = time.Since(t).Seconds()
	r.rec.end(id)
	r.res.set("traffic.next_ns", 1e9*sec/float64(made))
}
