// Command wormsim runs a single wormhole-network simulation and prints the
// paper's performance measures: average and standard deviation of message
// latency (cycles), accepted traffic (flits/node/cycle) and the percentage
// of detected deadlocks.
//
// Example (the paper's base configuration):
//
//	wormsim -k 8 -n 3 -vcs 3 -pattern uniform -len 16 -rate 0.4 -limiter alo
//
// With fault injection (5% of channels fail at cycle 0):
//
//	wormsim -rate 0.3 -limiter alo -faults 0.05 -fault-seed 7
//
// Every fault *and repair* is applied online: the engine bumps a routing
// epoch and recomputes its fault-aware routing state without draining.
// -fault-transient makes failures heal, and -fault-flaps turns each healing
// component into a flap storm (down, up, down again every
// -fault-flap-period cycles). -adversarial turns a fraction of nodes rogue:
// they bypass the injection limiter entirely and mount duty-cycled hotspot
// storms (-rogue-rate, -storm-period/-storm-on, -hotspot); results are then
// split into well-behaved and rogue traffic classes. -replay re-drives a
// run's exact generation schedule from a -trace-out JSONL file:
//
//	wormsim -rate 0.3 -faults 0.05 -fault-transient 1 -fault-repair 300 -fault-flaps 3 -fault-flap-period 900
//	wormsim -rate 0.65 -limiter alo -adversarial 0.1 -rogue-rate 2 -storm-period 500 -storm-on 200 -hotspot 5
//	wormsim -rate 0.4 -trace-out run.jsonl && wormsim -replay run.jsonl
//
// Live observability: -http serves Prometheus metrics, a JSON snapshot and
// pprof while the run is in flight; -metrics-out streams periodic metric
// snapshots (with a run manifest header) to a JSONL file; -trace-out streams
// every lifecycle event; -flight-out arms a flight recorder that dumps the
// recent event window when deadlock/drop activity bursts (and, with
// -flight-sat-threshold, on saturation onset — a limiter deny-rate spike);
// -spans tracks sampled message-lifecycle spans into blocked-time
// histograms, and -span-out additionally exports them as Chrome trace-event
// JSON that Perfetto (https://ui.perfetto.dev) loads directly; -progress
// prints a stderr heartbeat with the cycle rate, deny rate and ETA:
//
//	wormsim -rate 0.6 -http :8080 -metrics-out run.jsonl -flight-out flight.jsonl
//	wormsim -rate 1.2 -limiter none -progress -spans -span-out trace.json
//
// None of these change simulation results — instrumented and plain runs are
// bit-identical (the sim package's TestMetricsDeterminism pins this).
//
// Long runs are crash-resumable and watchdog-supervised: -checkpoint flushes
// periodic engine snapshots (atomic replace), -resume continues from one
// bit-identically (at any -workers count; the other config flags must match
// the original run), and -wall-budget/-cycle-budget/-stall-window bound the
// run. SIGINT/SIGTERM flush a final checkpoint before exiting 130:
//
//	wormsim -rate 0.4 -measure 10000000 -checkpoint run.wncp -checkpoint-every 100000
//	wormsim -rate 0.4 -measure 10000000 -resume run.wncp   # after a crash or ^C
//
// Exit codes: 0 completed; 1 stalled, over budget or crashed; 130
// interrupted by signal; 2 usage or configuration error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"wormnet/internal/baseline"
	"wormnet/internal/checkpoint"
	"wormnet/internal/fault"
	"wormnet/internal/metrics"
	"wormnet/internal/obs"
	"wormnet/internal/sim"
	"wormnet/internal/supervisor"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

func main() {
	os.Exit(run())
}

func run() int {
	cfg := sim.DefaultConfig()
	var limiterName string
	flag.IntVar(&cfg.K, "k", cfg.K, "torus radix (nodes per ring)")
	flag.IntVar(&cfg.N, "n", cfg.N, "torus dimensions")
	flag.IntVar(&cfg.VCs, "vcs", cfg.VCs, "virtual channels per physical channel")
	flag.IntVar(&cfg.BufDepth, "buf", cfg.BufDepth, "flits per virtual-channel buffer")
	flag.StringVar(&cfg.Routing, "routing", cfg.Routing, "routing engine: tfar, duato or dor")
	flag.StringVar(&cfg.Pattern, "pattern", cfg.Pattern,
		"traffic pattern: uniform, butterfly, complement, bit-reversal, perfect-shuffle, transpose, tornado")
	flag.IntVar(&cfg.MsgLen, "len", cfg.MsgLen, "message length in flits")
	flag.Float64Var(&cfg.Rate, "rate", cfg.Rate, "offered load in flits/node/cycle")
	flag.StringVar(&limiterName, "limiter", "alo", "injection limiter: none, lf, dril, alo, alo-rule-a, alo-rule-b, alo-all-channels")
	var threshold int
	flag.IntVar(&threshold, "threshold", int(cfg.DetectionThreshold), "deadlock detection threshold (cycles)")
	flag.Int64Var(&cfg.RecoveryDelay, "recovery-delay", cfg.RecoveryDelay, "software recovery cost (cycles)")
	flag.BoolVar(&cfg.LenientDetection, "lenient-detection", false,
		"timeout-style detection: presume deadlock on blockage alone, without the flit-activity veto")
	flag.Int64Var(&cfg.WarmupCycles, "warmup", cfg.WarmupCycles, "warm-up cycles before measurement")
	flag.Int64Var(&cfg.MeasureCycles, "measure", cfg.MeasureCycles, "measurement window (cycles)")
	flag.Int64Var(&cfg.DrainCycles, "drain", cfg.DrainCycles, "drain cycles after measurement")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.IntVar(&cfg.Workers, "workers", sim.DefaultWorkers(),
		"engine worker goroutines (results are identical for any count; 1 = serial)")
	prof := fault.Profile{}
	flag.Float64Var(&prof.LinkFraction, "faults", 0, "fraction of channels to fail [0,1]")
	flag.Float64Var(&prof.RouterFraction, "fault-routers", 0, "fraction of routers to fail [0,1]")
	flag.Uint64Var(&prof.Seed, "fault-seed", 1, "fault planner seed")
	flag.Int64Var(&prof.At, "fault-at", 0, "cycle the first failure strikes")
	flag.Int64Var(&prof.Stagger, "fault-stagger", 0, "spread failures over this many cycles")
	flag.Float64Var(&prof.TransientFraction, "fault-transient", 0, "fraction of failures that heal [0,1]")
	flag.Int64Var(&prof.RepairAfter, "fault-repair", 0, "outage length of transient failures (cycles)")
	flag.IntVar(&prof.FlapCount, "fault-flaps", 0,
		"extra down/up cycles per healing component (a link-flap storm; needs -fault-transient)")
	flag.Int64Var(&prof.FlapPeriod, "fault-flap-period", 0,
		"cycle distance between successive failures of a flapping component (must exceed -fault-repair)")
	adv := sim.AdversaryProfile{}
	flag.Float64Var(&adv.RogueFraction, "adversarial", 0,
		"fraction of nodes that turn rogue and bypass the injection limiter [0,1]")
	flag.Float64Var(&adv.RogueRate, "rogue-rate", 2.0, "offered load of each rogue node (flits/node/cycle)")
	flag.Int64Var(&adv.StormPeriod, "storm-period", 0, "rogue hotspot-storm duty-cycle period in cycles (0 = storm always on)")
	flag.Int64Var(&adv.StormOn, "storm-on", 0, "leading cycles of each storm period spent targeting the hotspot")
	hotspot := flag.Int("hotspot", 0, "node the rogue storms concentrate on")
	flag.Uint64Var(&adv.Seed, "adversary-seed", 1, "rogue placement seed")
	replayPath := flag.String("replay", "",
		"replay the generation schedule from this JSONL trace (as written by -trace-out) instead of synthetic sources")
	retries := flag.Int("retry-limit", fault.DefaultRetryPolicy().MaxRetries,
		"re-injection attempts before a fault-killed message is dropped")
	verbose := flag.Bool("v", false, "print per-node fairness summary")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	httpAddr := flag.String("http", "", "serve /metrics, /snapshot, /healthz and /debug/pprof on this address (e.g. :8080)")
	metricsOut := flag.String("metrics-out", "", "stream periodic metric snapshots (JSONL, with run manifest) to this file")
	metricsEvery := flag.Int64("metrics-every", sim.DefaultMetricsSampleEvery,
		"metric sampling period in cycles (gauges, per-phase timing, JSONL snapshots)")
	traceOut := flag.String("trace-out", "", "stream every message lifecycle event (JSONL) to this file")
	flightOut := flag.String("flight-out", "", "dump the recent event window (JSONL) when deadlock/drop activity bursts")
	flightSatThreshold := flag.Int("flight-sat-threshold", 0,
		"also dump the flight recorder when this many limiter denials land within -flight-sat-window cycles (0 = off; needs -flight-out)")
	flightSatWindow := flag.Int64("flight-sat-window", obs.DefaultFlightSatWindow,
		"saturation-trigger window in cycles (see -flight-sat-threshold)")
	spansOn := flag.Bool("spans", false,
		"track sampled message-lifecycle spans (blocked-time decomposition histograms; results stay bit-identical)")
	spanEvery := flag.Int64("span-every", sim.DefaultSpanSampleEvery,
		"span sampling period: track one in every N generated messages")
	spanOut := flag.String("span-out", "",
		"write sampled spans as Chrome trace-event JSON (Perfetto-loadable; implies -spans)")
	progress := flag.Bool("progress", false,
		"print a periodic progress heartbeat (cycles/s, delivered, deny rate, ETA) to stderr")
	ckptPath := flag.String("checkpoint", "", "flush periodic engine checkpoints to this file (atomic replace; resume with -resume)")
	ckptEvery := flag.Int64("checkpoint-every", 100000, "cycles between periodic checkpoints (needs -checkpoint)")
	resumePath := flag.String("resume", "", "resume bit-identically from this checkpoint file (config flags must match the original run; -workers may differ)")
	wallBudget := flag.Duration("wall-budget", 0, "abort the run after this much wall-clock time (0 = unlimited)")
	cycleBudget := flag.Int64("cycle-budget", 0, "max cycles this invocation may execute (0 = unlimited; a resumed run gets a fresh budget)")
	stallWindow := flag.Int64("stall-window", 0, "declare a livelock after this many cycles without a delivery or drop while messages are in flight (0 = off)")
	flag.Parse()
	cfg.DetectionThreshold = int32(threshold)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	ckptEveryGiven := false
	flag.Visit(func(f *flag.Flag) { ckptEveryGiven = ckptEveryGiven || f.Name == "checkpoint-every" })
	if err := unmetFlagNeeds(*flightSatThreshold, *flightOut, ckptEveryGiven, *ckptPath); err != nil {
		return fail(err)
	}

	faulty := prof.LinkFraction > 0 || prof.RouterFraction > 0
	if faulty {
		sched, err := fault.Plan(topology.New(cfg.K, cfg.N), prof)
		if err != nil {
			return fail(err)
		}
		cfg.Faults = sched
		cfg.Retry = fault.DefaultRetryPolicy()
		cfg.Retry.MaxRetries = *retries
	}

	if adv.RogueFraction > 0 {
		adv.Hotspot = topology.NodeID(*hotspot)
		cfg.Adversary = adv
	}

	if *replayPath != "" {
		rf, err := os.Open(*replayPath)
		if err != nil {
			return fail(err)
		}
		scripts, err := obs.ReadReplay(rf)
		rf.Close()
		if err != nil {
			return fail(err)
		}
		cfg.Sources = traffic.ReplayFactory(scripts)
		cfg.SourceName = "replay:" + *replayPath
	}

	f, err := baseline.LimiterByName(limiterName)
	if err != nil {
		return fail(err)
	}
	cfg.Limiter, cfg.LimiterName = f, limiterName

	// The engine: restored from a checkpoint (bit-identical continuation)
	// or built fresh. The snapshot is kept around so a metrics-enabled
	// resume can also restore the registry.
	var snap *sim.Snapshot
	var e *sim.Engine
	if *resumePath != "" {
		snap, err = checkpoint.ReadFile(*resumePath)
		if err != nil {
			return fail(err)
		}
		e, err = sim.RestoreEngine(cfg, snap)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wormsim: resuming from %s at cycle %d\n", *resumePath, e.Now())
	} else if e, err = sim.New(cfg); err != nil {
		return fail(err)
	}
	defer e.Close()

	// Observability stack. Everything here only reads the simulation, so
	// results are identical with or without it.
	var (
		reg       *metrics.Registry
		mwriter   *obs.JSONLWriter
		mlog      *obs.MetricsLogger
		lastCycle atomic.Int64
		listeners trace.Multi
	)
	wantSpans := *spansOn || *spanOut != ""
	if *httpAddr != "" || *metricsOut != "" || wantSpans || *progress {
		reg = metrics.NewRegistry()
		e.EnableMetrics(reg, *metricsEvery)
		if snap != nil {
			// Continue the metric series where the dead run left off.
			if err := reg.Restore(snap.Metrics); err != nil {
				return fail(err)
			}
		}
	}
	manifest := obs.NewManifest("wormsim", cfg.Seed, cfg.Manifest())
	if *metricsOut != "" {
		w, err := obs.CreateJSONL(*metricsOut)
		if err != nil {
			return fail(err)
		}
		defer w.Close()
		if err := w.Write(manifest); err != nil {
			return fail(err)
		}
		mwriter = w
		mlog = obs.NewMetricsLogger(w, reg)
	}
	if reg != nil {
		// The sample hook runs on the simulation goroutine every
		// -metrics-every cycles: publish the cycle for /healthz and append a
		// JSONL snapshot when -metrics-out is set.
		e.SetSampleHook(func(cycle int64) {
			lastCycle.Store(cycle)
			if mlog != nil {
				mlog.Snapshot(cycle)
			}
		})
	}

	// The supervisor's lifecycle state, published to /healthz.
	var supState atomic.Int32
	if *httpAddr != "" {
		mon := obs.NewMonitor(reg, manifest, lastCycle.Load)
		mon.SetStatus(func() string { return supervisor.State(supState.Load()).StateName() })
		if err := mon.Serve(*httpAddr); err != nil {
			return fail(err)
		}
		defer func() {
			if err := mon.Shutdown(2 * time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "monitor shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "monitor listening on http://%s (/metrics /snapshot /healthz /debug/pprof)\n", mon.Addr())
	}
	if *traceOut != "" {
		w, err := obs.CreateJSONL(*traceOut)
		if err != nil {
			return fail(err)
		}
		defer w.Close()
		if err := w.Write(manifest); err != nil {
			return fail(err)
		}
		listeners = append(listeners, obs.NewTraceSink(w))
	}
	var flight *obs.FlightRecorder
	if *flightOut != "" {
		w, err := obs.CreateJSONL(*flightOut)
		if err != nil {
			return fail(err)
		}
		defer w.Close()
		if err := w.Write(manifest); err != nil {
			return fail(err)
		}
		flight = obs.NewFlightRecorder(w, reg, obs.DefaultFlightCapacity,
			obs.DefaultFlightWindow, obs.DefaultFlightThreshold)
		if *flightSatThreshold > 0 {
			flight.SetSaturationTrigger(*flightSatWindow, *flightSatThreshold)
		}
		listeners = append(listeners, flight)
	}
	switch len(listeners) {
	case 0:
	case 1:
		e.SetListener(listeners[0])
	default:
		e.SetListener(listeners)
	}

	// Span instrumentation: aggregate into the registry, and fan finished
	// spans out to the trace-event file and/or the flight recorder.
	var spanJSON *obs.TraceJSONWriter
	if wantSpans {
		var sinks trace.MultiSpan
		if *spanOut != "" {
			tw, err := obs.CreateTraceJSON(*spanOut)
			if err != nil {
				return fail(err)
			}
			defer func() {
				if err := tw.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "span-out:", err)
				}
			}()
			spanJSON = tw
			sinks = append(sinks, tw)
		}
		if flight != nil {
			flight.RetainSpans(obs.DefaultFlightSpans)
			sinks = append(sinks, flight)
		}
		var sink trace.SpanSink
		switch len(sinks) {
		case 0:
		case 1:
			sink = sinks[0]
		default:
			sink = sinks
		}
		e.EnableSpans(reg, *spanEvery, sink)
	}

	if *progress {
		defer startProgress(&lastCycle, reg, cfg.TotalCycles(), e.Now())()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	// The supervised run: budgets, stall detection, panic containment and
	// graceful SIGINT/SIGTERM (both flush a final checkpoint when
	// -checkpoint is set, so the run is resumable from where it died).
	opts := supervisor.Options{
		WallBudget:  *wallBudget,
		CycleBudget: *cycleBudget,
		StallWindow: *stallWindow,
		Signals:     []os.Signal{os.Interrupt, syscall.SIGTERM},
		OnState:     func(s supervisor.State) { supState.Store(int32(s)) },
	}
	if *ckptPath != "" {
		opts.CheckpointEvery = *ckptEvery
		var snap sim.Snapshot // checkpoints are serial and written out before the next: one storage
		opts.Checkpoint = func(e *sim.Engine) error {
			if err := e.SnapshotInto(&snap); err != nil {
				return err
			}
			return checkpoint.WriteFile(*ckptPath, &snap)
		}
	}
	rep := supervisor.Run(e, opts)
	elapsed := rep.Wall
	ran := rep.EndCycle - rep.StartCycle
	if rep.CheckpointErr != nil {
		fmt.Fprintln(os.Stderr, "wormsim: final checkpoint failed:", rep.CheckpointErr)
	}

	if rep.Outcome != supervisor.Completed {
		// Partial runs still leave a structured trail: the JSONL stream gets
		// a terminal record, stderr gets the story and the resume hint.
		if mwriter != nil {
			rec := map[string]any{
				"t": "aborted", "outcome": rep.Outcome.String(), "cycle": e.Now(),
			}
			if rep.Err != nil {
				rec["error"] = rep.Err.Error()
			}
			if err := mwriter.Write(rec); err != nil {
				fmt.Fprintln(os.Stderr, "metrics-out:", err)
			}
		}
		fmt.Fprintf(os.Stderr, "wormsim: run %s at cycle %d (%d cycles in %v)\n",
			rep.Outcome, e.Now(), ran, elapsed.Round(time.Millisecond))
		if rep.Err != nil {
			fmt.Fprintln(os.Stderr, "wormsim:", rep.Err)
		}
		if *ckptPath != "" && rep.CheckpointErr == nil && rep.Outcome != supervisor.Crashed {
			fmt.Fprintf(os.Stderr, "wormsim: resume with -resume %s\n", *ckptPath)
		}
		if rep.Outcome == supervisor.Interrupted {
			return 130
		}
		return 1
	}
	r := rep.Result

	if mwriter != nil {
		if err := obs.WriteResult(mwriter, e.Now(), r); err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
			return 1
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		runtime.GC() // settle the heap so the profile shows live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		f.Close()
	}

	fmt.Printf("network        : %s, %d VCs x %d-flit buffers, routing=%s\n",
		e.Topology(), cfg.VCs, cfg.BufDepth, cfg.Routing)
	fmt.Printf("workload       : %s, %d-flit messages, offered %.4f flits/node/cycle\n",
		cfg.Pattern, cfg.MsgLen, cfg.Rate)
	fmt.Printf("limiter        : %s\n", cfg.LimiterName)
	fmt.Printf("avg latency    : %.1f cycles (std %.1f, p99 <= %.0f)\n",
		r.AvgLatency, r.StdLatency, r.P99Latency)
	fmt.Printf("net latency    : %.1f cycles (excl. source queue)\n", r.AvgNetLatency)
	fmt.Printf("accepted       : %.4f flits/node/cycle\n", r.Accepted)
	fmt.Printf("deadlocks      : %.3f%% of injected messages\n", r.DeadlockPct)
	fmt.Printf("messages       : generated %d, injected %d, delivered %d (window)\n",
		r.Generated, r.Injected, r.Delivered)
	fmt.Printf("fairness       : per-node injection deviation %.1f%% .. %+.1f%%\n",
		r.WorstNodeDev, r.BestNodeDev)
	sq, rq := e.QueueLengths()
	fmt.Printf("backlog        : %d queued, %d awaiting recovery, %d in flight\n",
		sq, rq, e.InFlight())
	if classes := e.Collector().ClassResults(); classes != nil {
		fmt.Printf("rogue nodes    : %v (offered %.2f flits/node/cycle each)\n",
			e.Rogues(), adv.RogueRate)
		for _, c := range classes {
			fmt.Printf("class %-8s : %d nodes, accepted %.4f flits/node/cycle, latency %.1f, delivered %d\n",
				c.Class, c.Nodes, c.Accepted, c.AvgLatency, c.Delivered)
		}
	}
	if faulty {
		l := e.Liveness()
		fmt.Printf("faults         : %d links, %d routers down at end; %d routing epoch(s)\n",
			l.DownLinks(), l.DownRouters(), e.Epoch())
		fmt.Printf("fault recovery : %d aborted, %d retried, %d dropped (whole run)\n",
			e.Aborted(), e.Retried(), e.Dropped())
	}
	if flight != nil {
		fmt.Printf("flight dumps   : %d dump(s) written to %s\n",
			flight.Dumps(), *flightOut)
	}
	if spanJSON != nil {
		fmt.Printf("spans          : %d sampled span(s) written to %s\n",
			spanJSON.Spans(), *spanOut)
	}
	fmt.Printf("simulated      : %d cycles in %v (%.0f cycles/s)\n",
		ran, elapsed.Round(time.Millisecond),
		float64(ran)/elapsed.Seconds())

	if *verbose {
		devs := e.Collector().Fairness().SortedDeviations()
		fmt.Println("\nper-node injection deviations (sorted):")
		for i, d := range devs {
			fmt.Printf("%8.2f%%", d)
			if (i+1)%8 == 0 {
				fmt.Println()
			}
		}
		fmt.Println()
	}
	return 0
}

// unmetFlagNeeds refuses a flag given without the flag its help says it needs,
// which would otherwise be ignored: a saturation trigger with no flight
// recorder to dump, or an explicit checkpoint cadence with no checkpoint file.
func unmetFlagNeeds(flightSatThreshold int, flightOut string, ckptEveryGiven bool, ckptPath string) error {
	if flightSatThreshold > 0 && flightOut == "" {
		return errors.New("wormsim: -flight-sat-threshold needs -flight-out")
	}
	if ckptEveryGiven && ckptPath == "" {
		return errors.New("wormsim: -checkpoint-every needs -checkpoint")
	}
	return nil
}

// startProgress launches the stderr heartbeat goroutine and returns its stop
// function. It reads only the atomic cycle mirror (fed by the sample hook)
// and the registry's atomic counters, so it never races the simulation.
func startProgress(lastCycle *atomic.Int64, reg *metrics.Registry, total, start int64) func() {
	// Re-registering returns the engine's own counter handles (and keeps
	// their original help strings).
	delivered := reg.NewCounter("sim_messages_delivered_total", "")
	admitted := reg.NewCounter("sim_injection_admitted_total", "")
	denied := reg.NewCounter("sim_injection_denied_total", "")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		prevCycle, prevAdm, prevDen := start, admitted.Value(), denied.Value()
		prevT := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			now := time.Now()
			cycle := lastCycle.Load()
			cps := float64(cycle-prevCycle) / now.Sub(prevT).Seconds()
			adm, den := admitted.Value(), denied.Value()
			denyPct := 0.0
			if tries := (adm - prevAdm) + (den - prevDen); tries > 0 {
				denyPct = float64(den-prevDen) / float64(tries) * 100
			}
			eta := "?"
			if cps > 0 && total > cycle {
				eta = time.Duration(float64(total-cycle) / cps * float64(time.Second)).Round(time.Second).String()
			}
			pct := 0.0
			if total > 0 {
				pct = float64(cycle) / float64(total) * 100
			}
			fmt.Fprintf(os.Stderr, "progress: cycle %d/%d (%.1f%%)  %.0f cycles/s  delivered %d  deny %.1f%%  eta %s\n",
				cycle, total, pct, cps, delivered.Value(), denyPct, eta)
			prevCycle, prevAdm, prevDen, prevT = cycle, adm, den, now
		}
	}()
	return func() { close(stop); <-done }
}
