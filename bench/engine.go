package main

import (
	"fmt"
	"runtime"
	"time"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/fault"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
)

// engineLoad is a single-engine workload: one 8-ary 3-cube engine (3 VCs of
// 4-flit buffers, TFAR, uniform 16-flit messages) stepped in equal segments.
type engineLoad struct {
	rate      float64
	alo       bool
	workers   int
	segCycles int
	// layerCosts makes the traced run the home of the opt-in layers' lanes
	// (metrics, spans, fault mode), whose known costs are recorded at the knee.
	layerCosts bool
	// serialTwin names the workload that is this one at Workers=1; the
	// sharded run must reproduce its golden.
	serialTwin string
}

var (
	kneeSerial   = engineLoad{rate: 0.65, workers: 1, segCycles: 1000, layerCosts: true}
	satALO       = engineLoad{rate: 0.9, alo: true, workers: 1, segCycles: 1000}
	idleALO      = engineLoad{rate: 0.2, alo: true, workers: 1, segCycles: 4000}
	kneeWorkers2 = engineLoad{rate: 0.65, workers: 2, segCycles: 1000, serialTwin: "knee-serial"}
)

const (
	// warmCycles brings a fresh engine to its steady state (or, beyond
	// saturation, to a full network) before anything is timed.
	warmCycles = 2000
	// setUps is how many fresh set-ups a run times; setup_s is their median.
	setUps = 5
	// phaseSampleEvery is the cadence at which the traced engine's registry
	// times the five phases: often enough for a few hundred samples in a
	// short run, rarely enough that the gauge walk stays a small share.
	phaseSampleEvery = 4
	// smokeRateScale maps the 8-ary 3-cube operating points onto the smoke
	// scale's 4-ary 2-cube, whose uniform capacity is about 2.5 times higher.
	smokeRateScale = 2.5
)

// config is the engine configuration of the workload for a timed section of
// the given length; the measurement window opens after the warm-up and
// covers exactly the timed cycles, so the final result is a normal run's.
func (l engineLoad) config(r *run, timedCycles int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Rate = l.rate
	if r.smoke {
		cfg.K, cfg.N = 4, 2
		cfg.Rate *= smokeRateScale
	}
	if l.alo {
		cfg.Limiter, cfg.LimiterName = core.NewALO(), "alo"
	} else {
		cfg.Limiter, cfg.LimiterName = baseline.NewNone(), "none"
	}
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = warmCycles, timedCycles, 0
	cfg.Seed = r.seed
	cfg.Workers = l.workers
	return cfg
}

// setUp goes from nothing to a warmed engine: sim.New, the optional prep
// (attaching a registry must precede the first Step), then the warm-up. It
// returns the engine, the time sim.New took and the whole set-up time.
func setUp(cfg sim.Config, prep func(*sim.Engine), rec *recorder) (*sim.Engine, time.Duration, time.Duration, error) {
	root := rec.begin("bench.setUp", noSpan, 0)
	t0 := time.Now()
	id := rec.begin("sim.New", root, 0)
	e, err := sim.New(cfg)
	rec.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	newDur := time.Since(t0)
	if prep != nil {
		prep(e)
	}
	id = rec.begin("sim.Step x warm-up", root, 0)
	for i := 0; i < warmCycles; i++ {
		e.Step()
	}
	rec.end(id)
	rec.end(root)
	return e, newDur, time.Since(t0), nil
}

// engineDigest is the simulated outcome of an engine at its current cycle.
func engineDigest(e *sim.Engine) digest {
	res := e.Collector().Result()
	return digest{
		"cycle":       float64(e.Now()),
		"generated":   float64(e.Generated()),
		"injected":    float64(res.Injected),
		"delivered":   float64(e.Delivered()),
		"recovered":   float64(e.Recovered()),
		"accepted":    res.Accepted,
		"avg_latency": res.AvgLatency,
		"std_latency": res.StdLatency,
	}
}

// stepSegment times cycles back-to-back Step calls and returns cycles per
// host second.
func stepSegment(e *sim.Engine, cycles int) float64 {
	t := time.Now()
	for i := 0; i < cycles; i++ {
		e.Step()
	}
	return float64(cycles) / time.Since(t).Seconds()
}

// measure is the untraced run of an engine workload.
func (l engineLoad) measure(r *run, segs int) error {
	nSetUps := setUps
	if r.smoke {
		nSetUps = 2
	}
	timed := int64(segs) * int64(l.segCycles)
	cfg := l.config(r, timed)

	// Every set-up is a fresh engine; the last one is the engine measured.
	// Allocations are counted from before that engine exists: in its steady
	// state the engine allocates next to nothing (0.05-0.09 objects a cycle
	// at the knee, by seed), which no relative bound can hold, while counted
	// from nothing the set-up's objects anchor the figure and half an
	// object more per cycle still moves it by a tenth.
	var e *sim.Engine
	setups := make([]float64, 0, nSetUps)
	rates := make([]float64, 0, segs)
	calib := make([]float64, 0, segs)
	var before uint64
	for i := 0; i < nSetUps; i++ {
		if e != nil {
			e.Close()
		}
		if i == nSetUps-1 {
			runtime.GC()
			before = mallocs()
		}
		var err error
		var d time.Duration
		if e, _, d, err = setUp(cfg, nil, nil); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	defer e.Close()
	warm := engineDigest(e)

	for s := 0; s < segs; s++ {
		rates = append(rates, stepSegment(e, l.segCycles))
		calib = append(calib, hostCalib())
	}
	r.setEndToEnd(setups, rates, calib, mallocs()-before, timed)

	r.checkErr(e.CheckInvariants(), "invariants at end of run")
	r.check(e.Now() == warmCycles+timed, "engine at cycle %d, want %d", e.Now(), warmCycles+timed)
	r.checkGolden(timed, engineDigest(e))
	if l.workers > 1 {
		// The sharded engine must be bit-identical to serial: for seeds 1
		// and 2 the whole run is held to knee-serial's golden, and for any
		// seed a serial twin checks the warm-up.
		if !r.gold.update {
			r.checkGoldenOf(l.serialTwin, timed, engineDigest(e))
		}
		serial := cfg
		serial.Workers = 1
		twin, _, _, err := setUp(serial, nil, nil)
		if err != nil {
			return err
		}
		want := engineDigest(twin)
		twin.Close()
		r.check(want.equal(warm), "workers=%d differs from serial after warm-up:%s", l.workers, want.diff(warm))
	}
	runtime.KeepAlive(e)
	return nil
}

// lane is one engine of the traced run's interleaved segments. Running the
// lanes' segments in turn makes every comparison between two lanes a set of
// adjacent pairs, so host drift cancels.
type lane struct {
	name  string
	e     *sim.Engine
	spans bool // record a span around every Step
	rates []float64
}

// traced is the traced run of an engine workload: a bare lane as the
// untraced reference, an instrumented lane (a span around every Step, the
// registry timing the phases) for the per-layer numbers, and the lanes of
// whatever else this workload is the home of.
func (l engineLoad) traced(r *run, segs int) error {
	// A sixth of the untraced run's cycles, in segments a quarter as long:
	// the lanes are compared pair by pair, and many short pairs, each lane's
	// segment moments from its partner's, resolve a few per cent where a
	// handful of long ones do not.
	segCycles := l.segCycles / 4
	pairs := max(2, 4*segs/6)
	timed := int64(pairs) * int64(segCycles)
	cfg := l.config(r, timed)

	var lanes []*lane
	defer func() {
		for _, ln := range lanes {
			ln.e.Close()
		}
	}()
	var newMS []float64
	add := func(name string, cfg sim.Config, spans bool, prep func(*sim.Engine)) error {
		e, newDur, _, err := setUp(cfg, prep, r.rec)
		if err != nil {
			return fmt.Errorf("lane %s: %w", name, err)
		}
		newMS = append(newMS, newDur.Seconds()*1e3)
		lanes = append(lanes, &lane{name: name, e: e, spans: spans})
		return nil
	}
	reg := metrics.NewRegistry()
	if err := add("bare", cfg, false, nil); err != nil {
		return err
	}
	if err := add("traced", cfg, true, func(e *sim.Engine) { e.EnableMetrics(reg, phaseSampleEvery) }); err != nil {
		return err
	}
	if l.workers > 1 {
		serial := cfg
		serial.Workers = 1
		if err := add("serial", serial, false, nil); err != nil {
			return err
		}
	}
	if l.layerCosts {
		if err := add("metrics", cfg, false, func(e *sim.Engine) {
			e.EnableMetrics(metrics.NewRegistry(), sim.DefaultMetricsSampleEvery)
		}); err != nil {
			return err
		}
		if err := add("spans", cfg, false, func(e *sim.Engine) {
			sreg := metrics.NewRegistry()
			e.EnableMetrics(sreg, sim.DefaultMetricsSampleEvery)
			e.EnableSpans(sreg, sim.DefaultSpanSampleEvery, nil)
		}); err != nil {
			return err
		}
		// Fault mode with nothing to do: the only event lies beyond the
		// last cycle, so the results must equal the bare lane's.
		faulty := cfg
		faulty.Faults = new(fault.Schedule).FailLink(1<<40, 0, 0)
		if err := add("fault", faulty, false, nil); err != nil {
			return err
		}
	}
	bare, inst := lanes[0], lanes[1]
	regWarm := snapshotRegistry(reg)
	recoveredWarm := inst.e.Recovered()

	calib := make([]float64, 0, pairs)
	for p := 0; p < pairs; p++ {
		// Each pair starts one lane later, so no lane always runs first.
		for i := range lanes {
			ln := lanes[(p+i)%len(lanes)]
			if !ln.spans {
				ln.rates = append(ln.rates, stepSegment(ln.e, segCycles))
				continue
			}
			seg := r.rec.begin("bench.segment", noSpan, 0)
			t := time.Now()
			for i := 0; i < segCycles; i++ {
				id := r.rec.begin("sim.Step", seg, 0)
				ln.e.Step()
				r.rec.end(id)
			}
			ln.rates = append(ln.rates, float64(segCycles)/time.Since(t).Seconds())
			r.rec.end(seg)
		}
		calib = append(calib, hostCalib())
	}
	inst.e.FlushMetrics()

	// Every lane simulated the same cycles of the same run: instrumentation,
	// an idle fault schedule and sharding must not change a single number.
	want := engineDigest(bare.e)
	for _, ln := range lanes[1:] {
		got := engineDigest(ln.e)
		r.check(want.equal(got), "lane %s differs from the bare engine:%s", ln.name, want.diff(got))
	}
	r.checkErr(inst.e.CheckInvariants(), "invariants at end of traced run")

	// Segment p of every lane simulates the same cycles moments apart, so the
	// per-pair ratio cancels both host drift and the simulated load's own
	// variation from segment to segment.
	against := func(a, b *lane) float64 {
		ratios := make([]float64, len(a.rates))
		for p := range ratios {
			ratios[p] = a.rates[p] / b.rates[p]
		}
		return median(ratios)
	}
	overhead := func(ln *lane) float64 { return 100 * (1 - against(ln, bare)) }
	res := r.res
	res.set("bench.trace_overhead_pct", overhead(inst))
	res.set("bench.segment_iqr_pct", 100*iqrShare(bare.rates))
	res.set("bench.host_calib_ms", median(calib))
	res.set("sim.new_ms", median(newMS))

	steps := r.rec.durations("sim.Step")
	res.set("sim.step_us_p50", 1e6*percentile(steps, 0.50))
	res.set("sim.step_us_p99", 1e6*percentile(steps, 0.99))
	d := snapshotRegistry(reg).since(regWarm)
	cycles := float64(timed)
	setCycleMetrics(res, d, cycles)
	setDenyMetrics(res, d)
	res.set("sim.inflight_end", float64(inst.e.InFlight()))
	res.set("deadlock.recoveries_per_kcycle", 1e3*float64(inst.e.Recovered()-recoveredWarm)/cycles)

	if l.workers > 1 {
		for i := 1; i <= 4; i++ {
			res.set(fmt.Sprintf("sim.barrier_wait_b%d_us", i), d.histMean(fmt.Sprintf("sim_barrier_wait_b%d_ns", i))/1e3)
		}
		res.set("sim.shard_busy_us", d.histMean("sim_shard_busy_ns")/1e3)
		res.set("sim.shard_imbalance", d.value("sim_shard_imbalance_ratio"))
		res.set("sim.ring_pushes_per_cycle", d.value("sim_ring_pushes_total")/cycles)
		res.set("sim.workers2_speedup", against(bare, lanes[2]))
	}
	for _, ln := range lanes {
		switch ln.name {
		case "metrics":
			res.set("metrics.overhead_pct", overhead(ln))
		case "spans":
			res.set("trace.spans_overhead_pct", overhead(ln))
		case "fault":
			res.set("fault.mode_overhead_pct", overhead(ln))
		}
	}
	if err := stateProbes(r, bare.e); err != nil {
		return err
	}
	microProbes(r, cfg)
	return nil
}
