package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wormnet/internal/experiments"
	"wormnet/internal/metrics"
	"wormnet/internal/sim"
)

// sweepScale is experiments.Full shrunk so that one repetition of the
// 16-point sweep (4 rates x none, LF, DRIL, ALO) takes a few seconds: the
// same 8-ary 3-cube, short windows, rates from idle to beyond saturation.
func sweepScale(r *run) experiments.Scale {
	s := experiments.Full()
	s.Warmup, s.Measure, s.Drain = 300, 900, 100
	s.Rates = []float64{0.2, 0.5, 0.65, 0.9}
	if r.smoke {
		s = experiments.Quick()
		s.Warmup, s.Measure, s.Drain = 200, 600, 100
		s.Rates = []float64{0.5, 1.2, 1.6, 2.2}
	}
	s.Seed = r.seed
	return s
}

// point is what the timing executor saw of one simulation point.
type point struct {
	limiter   string
	rate      float64
	cycles    int64
	newS      float64 // host seconds in sim.New
	runS      float64 // host seconds in Engine.Run
	recovered int64
	reg       *metrics.Registry // traced repetitions only
	engine    *sim.Engine
}

// timingExec is the experiments.Executor the sweep runs through: it is
// SerialExecutor with a clock around sim.New and Run. runAll calls it from
// up to GOMAXPROCS goroutines, so the record is locked and each concurrent
// point gets its own trace lane.
type timingExec struct {
	rec    *recorder
	parent int

	mu     sync.Mutex
	points []point
	lanes  []bool // lanes[i] is true while trace lane i+1 is taken
}

func (x *timingExec) takeLane() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	for i, busy := range x.lanes {
		if !busy {
			x.lanes[i] = true
			return i + 1
		}
	}
	x.lanes = append(x.lanes, true)
	return len(x.lanes)
}

func (x *timingExec) exec(cfg sim.Config) *sim.Engine {
	lane := 0
	if x.rec != nil {
		lane = x.takeLane()
		defer func() {
			x.mu.Lock()
			x.lanes[lane-1] = false
			x.mu.Unlock()
		}()
	}
	name := fmt.Sprintf("%s@%g", cfg.LimiterName, cfg.Rate)
	root := x.rec.begin("experiments.point "+name, x.parent, lane)
	p := point{limiter: cfg.LimiterName, rate: cfg.Rate, cycles: cfg.TotalCycles()}

	t := time.Now()
	id := x.rec.begin("sim.New", root, lane)
	e, err := sim.New(cfg)
	x.rec.end(id)
	if err != nil {
		// Same contract as experiments.SerialExecutor: the sweep's
		// configurations are the benchmark's own, so this is a bug.
		panic(fmt.Sprintf("bench: sweep config does not build: %v", err))
	}
	p.newS = time.Since(t).Seconds()
	if x.rec != nil {
		p.reg = metrics.NewRegistry()
		e.EnableMetrics(p.reg, phaseSampleEvery)
	}
	t = time.Now()
	id = x.rec.begin("sim.Engine.Run", root, lane)
	e.Run()
	x.rec.end(id)
	p.runS = time.Since(t).Seconds()
	x.rec.end(root)

	p.recovered, p.engine = e.Recovered(), e
	x.mu.Lock()
	x.points = append(x.points, p)
	x.mu.Unlock()
	return e
}

// sweepRep is one repetition of the sweep.
type sweepRep struct {
	points []point
	wall   float64
	ops    int64
	digest digest
}

func (s *sweepRep) newS() (t float64) {
	for _, p := range s.points {
		t += p.newS
	}
	return t
}

func (s *sweepRep) busyS() (t float64) {
	for _, p := range s.points {
		t += p.newS + p.runS
	}
	return t
}

// top returns the limiter's point at the highest offered rate.
func (s *sweepRep) top(limiter string) *point {
	var best *point
	for i := range s.points {
		if p := &s.points[i]; p.limiter == limiter && (best == nil || p.rate > best.rate) {
			best = p
		}
	}
	return best
}

// runSweep runs the figure once through the timing executor.
func runSweep(r *run, rec *recorder) *sweepRep {
	root := rec.begin("experiments.Fig5.Run", noSpan, 0)
	x := &timingExec{rec: rec, parent: root}
	t := time.Now()
	rep := experiments.Fig5().Run(sweepScale(r), x.exec)
	wall := time.Since(t).Seconds()
	rec.end(root)

	out := &sweepRep{points: x.points, wall: wall, digest: digest{}}
	for _, p := range x.points {
		out.ops += p.cycles
		out.digest[fmt.Sprintf("%s@%g.recovered", p.limiter, p.rate)] = float64(p.recovered)
	}
	for _, ser := range rep.Series {
		for _, pt := range ser.Points {
			key := fmt.Sprintf("%s@%g.", ser.Name, pt.Offered)
			out.digest[key+"generated"] = float64(pt.Result.Generated)
			out.digest[key+"injected"] = float64(pt.Result.Injected)
			out.digest[key+"delivered"] = float64(pt.Result.Delivered)
			out.digest[key+"accepted"] = pt.Result.Accepted
			out.digest[key+"avg_latency"] = pt.Result.AvgLatency
			out.digest[key+"std_latency"] = pt.Result.StdLatency
		}
	}
	return out
}

// measureSweep is the untraced run of fig-sweep: repetitions of the whole
// figure, an op being one simulated cycle of any point.
func measureSweep(r *run, reps int) error {
	if r.smoke {
		reps = 1
	}
	var rates, setups, calib []float64
	var ops int64
	var last *sweepRep
	runtime.GC()
	before := mallocs()
	for i := 0; i < reps; i++ {
		rep := runSweep(r, nil)
		rates = append(rates, float64(rep.ops)/rep.wall)
		setups = append(setups, rep.newS())
		calib = append(calib, hostCalib())
		ops += rep.ops
		if last != nil {
			r.check(last.digest.equal(rep.digest), "repetition %d simulated something else:%s", i, last.digest.diff(rep.digest))
		}
		last = rep
	}
	r.setEndToEnd(setups, rates, calib, mallocs()-before, ops)

	r.check(len(last.points) == 16, "sweep ran %d points, want 16", len(last.points))
	for _, p := range last.points {
		r.checkErr(p.engine.CheckInvariants(), fmt.Sprintf("invariants of point %s@%g", p.limiter, p.rate))
	}
	r.checkGolden(ops, last.digest)
	runtime.KeepAlive(last)
	return nil
}

// tracedSweep is the traced run of fig-sweep: one untraced repetition as
// the reference, one with a span around every point's sim.New and Run and
// a registry on every engine; it is also the home of the campaign probe.
func tracedSweep(r *run, _ int) error {
	ref := runSweep(r, nil)
	rep := runSweep(r, r.rec)
	r.check(ref.digest.equal(rep.digest), "traced sweep simulated something else:%s", ref.digest.diff(rep.digest))

	res := r.res
	res.set("bench.trace_overhead_pct", 100*(1-(float64(rep.ops)/rep.wall)/(float64(ref.ops)/ref.wall)))
	res.set("bench.host_calib_ms", hostCalib())

	var pointS, newMS []float64
	for _, p := range ref.points {
		pointS = append(pointS, p.newS+p.runS)
		newMS = append(newMS, 1e3*p.newS)
	}
	res.set("experiments.point_s_p50", median(pointS))
	res.set("experiments.point_s_max", percentile(pointS, 1))
	res.set("experiments.idle_share", 1-ref.busyS()/(ref.wall*float64(runtime.GOMAXPROCS(0))))
	res.set("experiments.setup_share", ref.newS()/ref.busyS())
	res.set("sim.new_ms", median(newMS))
	for limiter, name := range map[string]string{
		"none": "baseline.none_cycles_per_s", "lf": "baseline.lf_cycles_per_s",
		"dril": "baseline.dril_cycles_per_s", "alo": "core.alo_cycles_per_s",
	} {
		if p := ref.top(limiter); p != nil {
			res.set(name, float64(p.cycles)/p.runS)
		}
	}

	// The phase timers of all sixteen engines, folded into one registry.
	all := metrics.NewRegistry()
	var cycles float64
	for _, p := range rep.points {
		all.Merge(p.reg)
		cycles += float64(p.cycles)
	}
	setCycleMetrics(res, snapshotRegistry(all), cycles)
	alo := rep.top("alo")
	if alo == nil {
		return fmt.Errorf("sweep has no ALO series")
	}
	setDenyMetrics(res, snapshotRegistry(alo.reg))
	res.set("sim.inflight_end", float64(alo.engine.InFlight()))
	res.set("deadlock.recoveries_per_kcycle", 1e3*float64(alo.recovered)/float64(alo.cycles))

	if err := stateProbes(r, alo.engine); err != nil {
		return err
	}
	microProbes(r, alo.engine.Config())
	return campaignProbe(r)
}
