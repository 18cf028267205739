// Command figures regenerates the paper's evaluation figures. Each figure
// is a set of simulation sweeps whose text table carries the same series
// the paper plots (latency/accepted-traffic/deadlock curves, ALO condition
// percentages, per-node fairness distributions).
//
//	figures                 # every figure at full scale (8-ary 3-cube)
//	figures -fig 5          # only Figure 5
//	figures -fig faults     # degradation under link failures (not in -fig all)
//	figures -fig adversarial# limiter containment vs rogue nodes + link flaps (not in -fig all)
//	figures -quick          # reduced 4-ary 2-cube scale
//	figures -csv out.csv    # additionally dump CSV rows for plotting
//	figures -jsonl out.jsonl# additionally stream structured per-point records
//
// A figure runs its points side by side, one one-shard engine per CPU.
//
// SIGINT/SIGTERM stop the run at the next figure boundary: finished figures
// are already printed (and flushed to -csv/-jsonl), the rest are skipped and
// the process exits 130.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"wormnet/internal/experiments"
	"wormnet/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	fig := flag.String("fig", "all", "figure to regenerate: 1,2,4,5,6,7,8,9,10, deadlocks, faults, adversarial, or all")
	quick := flag.Bool("quick", false, "run the reduced-scale configuration")
	csvPath := flag.String("csv", "", "also append CSV rows to this file")
	jsonlPath := flag.String("jsonl", "", "also stream a manifest plus one record per measured point (JSONL) to this file")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	scale := experiments.Full()
	if *quick {
		scale = experiments.Quick()
	}

	var exps []experiments.Experiment
	if *fig == "all" {
		exps = experiments.All()
	} else {
		id := *fig
		if _, err := strconv.Atoi(id); err == nil {
			id = "fig" + id
		}
		ex, err := experiments.ByID(id)
		if err != nil {
			return fail(err)
		}
		exps = []experiments.Experiment{ex}
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		csv = f
	}

	var jsonl *obs.JSONLWriter
	if *jsonlPath != "" {
		w, err := obs.CreateJSONL(*jsonlPath)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "jsonl:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		man := obs.NewManifest("figures", scale.Seed, map[string]any{
			"scale": scale.Name, "k": scale.K, "n": scale.N,
			"warmup": scale.Warmup, "measure": scale.Measure, "drain": scale.Drain,
			"fig": *fig,
		})
		if err := w.Write(man); err != nil {
			return fail(err)
		}
		jsonl = w
	}

	// Figures run minutes at full scale: let ^C land between them instead of
	// tearing the table mid-print.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	fmt.Printf("scale: %s (%d-ary %d-cube), windows %d/%d/%d\n\n",
		scale.Name, scale.K, scale.N, scale.Warmup, scale.Measure, scale.Drain)
	for i, ex := range exps {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "figures: %v: stopping after %d of %d figure(s); finished output is flushed\n",
				sig, i, len(exps))
			return 130
		default:
		}
		start := time.Now()
		rep := ex.Run(scale, nil)
		fmt.Print(rep.Render())
		fmt.Printf("(%s completed in %v)\n\n", ex.ID, time.Since(start).Round(time.Second))
		if csv != nil {
			if _, err := csv.WriteString(rep.CSV()); err != nil {
				fmt.Fprintln(os.Stderr, "csv:", err)
				return 1
			}
		}
		if jsonl != nil {
			for _, s := range rep.Series {
				for _, p := range s.Points {
					rec := map[string]any{
						"t": "result", "fig": rep.ID, "series": s.Name,
						"offered": p.Offered, "result": p.Result,
					}
					if p.Probe != nil {
						rec["probe"] = map[string]float64{
							"pct_rule_a": p.Probe.PercentA(),
							"pct_rule_b": p.Probe.PercentB(),
							"pct_either": p.Probe.PercentEither(),
						}
					}
					if p.Classes != nil {
						rec["classes"] = p.Classes
					}
					if err := jsonl.Write(rec); err != nil {
						fmt.Fprintln(os.Stderr, "jsonl:", err)
						return 1
					}
				}
			}
		}
	}
	return 0
}
