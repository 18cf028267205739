// Package experiments defines one reproducible experiment per figure of the
// paper's evaluation section and a runner that executes them. Each
// experiment maps onto the sim.Config space; the runner executes the runs
// of an experiment (in parallel when more than one CPU is available) and
// renders the same rows/series the paper plots.
//
// Index (see DESIGN.md for the full mapping):
//
//	fig1  — performance degradation without throttling (latency, accepted
//	        traffic and detected deadlocks vs offered traffic)
//	fig2  — percentage of routing occurrences satisfying ALO's rules
//	fig4  — per-node injection fairness at 0.65 flits/node/cycle, 64-flit
//	fig5  — latency and its standard deviation vs traffic, uniform 16-flit
//	fig6  — latency vs traffic, uniform 64-flit
//	fig7  — latency vs traffic, butterfly 16-flit
//	fig8  — latency vs traffic, complement 16-flit
//	fig9  — latency vs traffic, bit-reversal 16-flit
//	fig10 — latency vs traffic, perfect-shuffle 16-flit
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/fault"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
)

// Scale selects the execution scale of an experiment: the paper's full
// 8-ary 3-cube or a reduced configuration whose curves have the same shape.
type Scale struct {
	Name    string
	K, N    int
	Warmup  int64
	Measure int64
	Drain   int64
	// Rates is the offered-load grid for uniform traffic; permutation
	// patterns use PermRates (they saturate earlier).
	Rates     []float64
	PermRates []float64
	// FairRate is the beyond-saturation operating point of the fairness
	// experiment (the paper uses 0.65 flits/node/cycle).
	FairRate float64
	// FaultRate is the below-saturation operating point of the faults
	// experiment, where degradation comes from failures, not congestion.
	FaultRate float64
	Seed      uint64
}

// Full is the paper's configuration: an 8-ary 3-cube (512 nodes).
func Full() Scale {
	return Scale{
		Name: "full", K: 8, N: 3,
		Warmup: 4000, Measure: 12000, Drain: 1000,
		Rates:     []float64{0.1, 0.3, 0.5, 0.6, 0.65, 0.7, 0.8, 0.9},
		PermRates: []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0},
		FairRate:  0.65,
		FaultRate: 0.3,
		Seed:      1,
	}
}

// Quick is a reduced 4-ary 2-cube (16 nodes) configuration used by tests
// and benchmarks.
func Quick() Scale {
	// A 4-ary torus has roughly 8/k = 2 flits/node/cycle of uniform
	// capacity, so the quick grids reach further than the full-scale ones.
	return Scale{
		Name: "quick", K: 4, N: 2,
		Warmup: 1000, Measure: 4000, Drain: 500,
		Rates:     []float64{0.2, 0.6, 1.0, 1.4, 1.7, 2.0},
		PermRates: []float64{0.1, 0.3, 0.6, 0.9, 1.2},
		FairRate:  1.8,
		FaultRate: 0.8,
		Seed:      1,
	}
}

// baseConfig builds the shared simulator configuration of a scale.
func (s Scale) baseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.K, cfg.N = s.K, s.N
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = s.Warmup, s.Measure, s.Drain
	cfg.Seed = s.Seed
	return cfg
}

// Point is one measured operating point of a series.
type Point struct {
	Offered float64
	Result  stats.Result
	// Probe carries the ALO-condition percentages for fig2 points.
	Probe *core.ProbeStats
	// Deviations carries per-node injection deviations for fig4 points.
	Deviations []float64
	// Classes carries the per-traffic-class split (good vs rogue) for
	// adversarial points; nil elsewhere.
	Classes []stats.ClassResult
}

// ClassAccepted returns the accepted traffic of the named class at this
// point, or the overall accepted figure when no class split exists.
func (p Point) ClassAccepted(name string) float64 {
	for _, c := range p.Classes {
		if c.Class == name {
			return c.Accepted
		}
	}
	return p.Result.Accepted
}

// Series is a named curve: one injection mechanism swept over offered load.
type Series struct {
	Name   string
	Points []Point
}

// Report is the outcome of one experiment: the regenerated figure.
type Report struct {
	ID     string
	Title  string
	Series []Series
}

// Experiment is a runnable reproduction of one paper figure.
type Experiment struct {
	ID    string
	Title string
	// run executes the experiment at the given scale.
	run func(s Scale, exec Executor) Report
}

// Executor runs simulation configs; it exists so the runner can schedule
// runs across goroutines. Execute must return the engine after Run.
type Executor func(cfg sim.Config) *sim.Engine

// SerialExecutor runs each config inline.
func SerialExecutor(cfg sim.Config) *sim.Engine {
	e, err := sim.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad config: %v", err))
	}
	e.Run()
	return e
}

// mechanism is a named injection limiter.
type mechanism struct {
	name string
	f    core.Factory
}

// mechanisms returns the paper's §4.2 comparison set in presentation order.
func mechanisms() []mechanism {
	return []mechanism{
		{"none", baseline.NewNone()},
		{"lf", baseline.NewLF()},
		{"dril", baseline.NewDRIL()},
		{"alo", core.NewALO()},
	}
}

// runAll executes every config through exec on runtime.GOMAXPROCS(0) workers
// and returns the engines in input order. The workers take the configs by
// descending offered rate — a point's cost grows with its load, and starting
// the longest first leaves the short ones to fill the tail, where an order
// left to the scheduler can end on one core running the most expensive point
// alone.
func runAll(cfgs []sim.Config, exec Executor) []*sim.Engine {
	engines := make([]*sim.Engine, len(cfgs))
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cfgs[order[a]].Rate > cfgs[order[b]].Rate })
	work := make(chan int, len(order))
	for _, i := range order {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cfgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				engines[i] = exec(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return engines
}

// fairnessReplicas is how many seed-shifted replicas the fairness figure
// pools; per-node injection counts need more messages per node than one
// latency-figure window provides.
const fairnessReplicas = 3

// replicate runs cfg under replicas consecutive seeds through exec and
// returns the pooled collector: stats.Collector.Merge pools latency samples
// and per-node counters and averages the per-cycle rates over the runs.
func replicate(cfg sim.Config, replicas int, exec Executor) *stats.Collector {
	cfgs := make([]sim.Config, replicas)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)
	}
	engines := runAll(cfgs, exec)
	col := engines[0].Collector()
	for _, e := range engines[1:] {
		col.Merge(e.Collector())
	}
	return col
}

// sweep runs every mechanism over a rate grid, all points in one fan-out, and
// returns a series for each.
func sweep(base sim.Config, mechs []mechanism, rates []float64, exec Executor) []Series {
	cfgs := make([]sim.Config, 0, len(mechs)*len(rates))
	for _, m := range mechs {
		for _, r := range rates {
			cfgs = append(cfgs, base.WithLimiter(m.name, m.f).WithRate(r))
		}
	}
	engines := runAll(cfgs, exec)
	series := make([]Series, len(mechs))
	for i, m := range mechs {
		series[i].Name = m.name
		for j, r := range rates {
			e := engines[i*len(rates)+j]
			series[i].Points = append(series[i].Points, Point{Offered: r, Result: e.Collector().Result()})
		}
	}
	return series
}

// All returns every experiment in paper order. The "deadlocks" experiment
// (the §4.2 text numbers) is not part of All because it needs the lenient
// timeout-style detector and deep-saturation runs; request it explicitly.
func All() []Experiment {
	return []Experiment{
		Fig1(), Fig2(), Fig4(), Fig5(), Fig6(), Fig7(), Fig8(), Fig9(), Fig10(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, ex := range append(All(), DeadlockRates(), Faults(), Adversarial()) {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// DeadlockRates reproduces the detected-deadlock percentages quoted in the
// paper's §4.2 text: without injection limitation and with a timeout-style
// (lenient) detector, the permutation patterns reach very high detection
// rates at saturation — the paper quotes >70% for complement, >35% for
// perfect-shuffle and >20% for bit-reversal — while any limiter collapses
// them. One beyond-saturation point per pattern, none vs alo.
func DeadlockRates() Experiment {
	return Experiment{
		ID:    "deadlocks",
		Title: "Peak detected-deadlock rates at saturation (lenient detection)",
		run: func(s Scale, exec Executor) Report {
			rep := Report{ID: "deadlocks", Title: "Detected deadlocks at saturation"}
			rate := s.PermRates[len(s.PermRates)-1]
			var cfgs []sim.Config
			for _, pattern := range []string{"complement", "perfect-shuffle", "bit-reversal"} {
				for _, m := range mechanisms() {
					if m.name != "none" && m.name != "alo" {
						continue
					}
					cfg := s.baseConfig()
					cfg.Pattern, cfg.MsgLen = pattern, 16
					cfg.LenientDetection = true
					cfgs = append(cfgs, cfg.WithLimiter(m.name, m.f).WithRate(rate))
					rep.Series = append(rep.Series, Series{Name: pattern + "/" + m.name})
				}
			}
			for i, e := range runAll(cfgs, exec) {
				rep.Series[i].Points = []Point{{Offered: rate, Result: e.Collector().Result()}}
			}
			return rep
		},
	}
}

// FaultFractions is the failed-link grid of the faults experiment: from the
// healthy network up to 10% of channels dead.
func FaultFractions() []float64 {
	return []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
}

// Faults measures graceful degradation under permanent link failures:
// accepted traffic and latency versus the fraction of failed channels
// (0–10%), per injection mechanism, at a below-saturation uniform load.
// Failed links shrink the useful-channel set the limiters measure, so ALO
// throttles into the reduced capacity instead of collapsing; killed
// wormholes retry from their sources. Points use Offered to carry the
// failed-link fraction, not the injection rate.
func Faults() Experiment {
	return Experiment{
		ID:    "faults",
		Title: "Graceful degradation under link failures (uniform, 16-flit)",
		run: func(s Scale, exec Executor) Report {
			base := s.baseConfig()
			base.Pattern, base.MsgLen = "uniform", 16
			topo := topology.New(s.K, s.N)
			fractions := FaultFractions()
			rep := Report{ID: "faults", Title: "Accepted traffic and latency vs failed links"}
			for _, m := range mechanisms() {
				cfgs := make([]sim.Config, len(fractions))
				for i, frac := range fractions {
					cfg := base.WithLimiter(m.name, m.f).WithRate(s.FaultRate)
					if frac > 0 {
						sched, err := fault.Plan(topo, fault.Profile{
							LinkFraction: frac, Seed: s.Seed,
						})
						if err != nil {
							panic(fmt.Sprintf("experiments: bad fault profile: %v", err))
						}
						cfg = cfg.WithFaults(sched)
					}
					cfgs[i] = cfg
				}
				engines := runAll(cfgs, exec)
				ser := Series{Name: m.name}
				for i, e := range engines {
					ser.Points = append(ser.Points, Point{
						Offered: fractions[i],
						Result:  e.Collector().Result(),
					})
				}
				rep.Series = append(rep.Series, ser)
			}
			return rep
		},
	}
}

// Run executes the experiment.
func (ex Experiment) Run(s Scale, exec Executor) Report {
	if exec == nil {
		exec = SerialExecutor
	}
	return ex.run(s, exec)
}

// Fig1 reproduces Figure 1: latency, accepted traffic and detected
// deadlocks versus offered traffic with no injection limitation — the
// performance-degradation motivation plot.
func Fig1() Experiment {
	return Experiment{
		ID:    "fig1",
		Title: "Performance degradation without injection limitation (uniform, 16-flit)",
		run: func(s Scale, exec Executor) Report {
			base := s.baseConfig()
			base.Pattern, base.MsgLen = "uniform", 16
			none := []mechanism{{"none", baseline.NewNone()}}
			return Report{ID: "fig1", Title: "Figure 1", Series: sweep(base, none, s.Rates, exec)}
		},
	}
}

// Fig2 reproduces Figure 2: the percentage of injection-time routing
// occurrences satisfying ALO rule (a), rule (b) and (a)∨(b), measured on an
// unthrottled network across traffic levels.
func Fig2() Experiment {
	return Experiment{
		ID:    "fig2",
		Title: "Routing occurrences satisfying the ALO conditions (uniform, 16-flit)",
		run: func(s Scale, exec Executor) Report {
			base := s.baseConfig()
			base.Pattern, base.MsgLen = "uniform", 16
			ser := Series{Name: "none+probe"}
			cfgs := make([]sim.Config, len(s.Rates))
			for i, r := range s.Rates {
				f, probe := core.WrapProbe(baseline.NewNone())
				cfgs[i] = base.WithLimiter("none", f).WithRate(r)
				ser.Points = append(ser.Points, Point{Offered: r, Probe: probe})
			}
			for i, e := range runAll(cfgs, exec) {
				ser.Points[i].Result = e.Collector().Result()
			}
			return Report{ID: "fig2", Title: "Figure 2", Series: []Series{ser}}
		},
	}
}

// Fig4 reproduces Figure 4: the distribution of per-node sent-message
// deviations for LF, DRIL and ALO at the paper's beyond-saturation
// operating point (uniform, 64-flit messages).
func Fig4() Experiment {
	return Experiment{
		ID:    "fig4",
		Title: "Per-node injection fairness (uniform, 64-flit, beyond saturation)",
		run: func(s Scale, exec Executor) Report {
			base := s.baseConfig()
			base.Pattern, base.MsgLen = "uniform", 64
			rep := Report{ID: "fig4", Title: "Figure 4"}
			for _, m := range mechanisms() {
				if m.name == "none" {
					continue // the paper compares the three limiters
				}
				// Per-node fairness needs more messages per node than the
				// latency figures: pool seed-shifted replicas instead of
				// stretching one measurement window.
				cfg := base.WithLimiter(m.name, m.f).WithRate(s.FairRate)
				col := replicate(cfg, fairnessReplicas, exec)
				rep.Series = append(rep.Series, Series{
					Name: m.name,
					Points: []Point{{
						Offered:    s.FairRate,
						Result:     col.Result(),
						Deviations: col.Fairness().SortedDeviations(),
					}},
				})
			}
			return rep
		},
	}
}

// latencyFigure builds the common latency-vs-traffic experiment of Figures
// 5 through 10.
func latencyFigure(id, pattern string, msgLen int, perm bool) Experiment {
	title := fmt.Sprintf("Latency vs traffic (%s, %d-flit)", pattern, msgLen)
	return Experiment{
		ID:    id,
		Title: title,
		run: func(s Scale, exec Executor) Report {
			base := s.baseConfig()
			base.Pattern, base.MsgLen = pattern, msgLen
			rates := s.Rates
			if perm {
				rates = s.PermRates
			}
			return Report{ID: id, Title: title, Series: sweep(base, mechanisms(), rates, exec)}
		},
	}
}

// Fig5 reproduces Figure 5 (uniform, 16-flit; includes latency std-dev).
func Fig5() Experiment { return latencyFigure("fig5", "uniform", 16, false) }

// Fig6 reproduces Figure 6 (uniform, 64-flit).
func Fig6() Experiment { return latencyFigure("fig6", "uniform", 64, false) }

// Fig7 reproduces Figure 7 (butterfly, 16-flit).
func Fig7() Experiment { return latencyFigure("fig7", "butterfly", 16, true) }

// Fig8 reproduces Figure 8 (complement, 16-flit).
func Fig8() Experiment { return latencyFigure("fig8", "complement", 16, true) }

// Fig9 reproduces Figure 9 (bit-reversal, 16-flit).
func Fig9() Experiment { return latencyFigure("fig9", "bit-reversal", 16, true) }

// Fig10 reproduces Figure 10 (perfect-shuffle, 16-flit).
func Fig10() Experiment { return latencyFigure("fig10", "perfect-shuffle", 16, true) }

// PlateauThroughput returns a series' sustained accepted traffic: the
// maximum accepted value over its points (the plateau of the throughput
// curve; for degraded curves the pre-collapse peak).
func PlateauThroughput(ser Series) float64 {
	max := 0.0
	for _, p := range ser.Points {
		if p.Result.Accepted > max {
			max = p.Result.Accepted
		}
	}
	return max
}

// FinalAccepted returns the accepted traffic at the highest offered load —
// the post-saturation behaviour (collapses for "none", holds for limiters).
func FinalAccepted(ser Series) float64 {
	if len(ser.Points) == 0 {
		return 0
	}
	pts := make([]Point, len(ser.Points))
	copy(pts, ser.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Offered < pts[j].Offered })
	return pts[len(pts)-1].Result.Accepted
}

// PeakDeadlockPct returns the worst detected-deadlock percentage across a
// series' points.
func PeakDeadlockPct(ser Series) float64 {
	max := 0.0
	for _, p := range ser.Points {
		if p.Result.DeadlockPct > max {
			max = p.Result.DeadlockPct
		}
	}
	return max
}
