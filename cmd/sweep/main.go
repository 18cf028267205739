// Command sweep runs parameter sweeps beyond the paper's figures — offered
// load, virtual-channel count, buffer depth, detection threshold, message
// length or failed-link fraction — and prints one CSV row per point. It is
// the ablation companion to cmd/figures. With -jsonl the same data goes to a
// file as structured records (a run manifest, then one result record per
// point).
//
// A sweep is a campaign (internal/campaign): a coordinator journals it and
// worker loops execute its points under the supervisor — wall/stall budgets,
// retries, periodic checkpoints, a final checkpoint on SIGINT/SIGTERM. The
// sweep runs one loop per CPU (at most one per point), so its points run
// side by side, each on a one-shard engine. By default coordinator and loops
// run in this process. -connect leaves the coordinator to campaignd and runs
// only the loops: the sweep submits the same spec, so a campaignd that
// already holds it (from campaignd -spec, or from another sweep) resumes it.
// The rows are the same bits whichever way it ran, on however many loops,
// and however often it was interrupted.
//
// With -out the coordinator journals to <dir>/<id>/ — spec.json,
// manifest.json (atomic writes) and one point-NNN.wncp per point in flight —
// where <id> is derived from the spec. Running the same command again
// therefore continues the same campaign: completed points are final, an
// interrupted point resumes from its last checkpoint. A different spec gets
// a different <id> and starts clean.
//
// Examples:
//
//	sweep -vary rate -values 0.1,0.2,0.3,0.4,0.5,0.6,0.7 -limiter alo
//	sweep -vary vcs -values 1,2,3 -rate 0.5
//	sweep -vary rate -values 0.3,0.6,0.9 -out campaign/ -checkpoint-every 2000
//	sweep -vary rate -values 0.3,0.6,0.9 -connect http://127.0.0.1:8080
//
// Exit codes: 0 all points completed; 1 some point failed or stalled (a
// status table lands on stderr); 130 interrupted by signal; 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"wormnet/internal/campaign"
	"wormnet/internal/obs"
)

func main() {
	os.Exit(run())
}

// farm is the coordinator as the sweep uses it, in this process
// (*campaign.Coordinator) or another (*campaign.Client).
type farm interface {
	campaign.Transport
	Submit(spec *campaign.Spec) (id string, created bool, err error)
	Status(id string) (*campaign.StatusView, error)
}

// defaultCheckpointEvery is the periodic checkpoint cadence of a sweep that was
// not given -checkpoint-every: the spec's default wherever a checkpoint can
// outlive the process that took it — a journal under -out, a coordinator
// behind -connect — and none for a local sweep without -out, which has
// nowhere to resume from and would pay the encode and the validating decode
// (+4–5 % wall on a short sweep) for nothing.
func defaultCheckpointEvery(specDefault int64, out, connect string) int64 {
	if out == "" && connect == "" {
		return 0
	}
	return specDefault
}

func run() int {
	spec := campaign.DefaultSpec()
	vary := flag.String("vary", "rate", "parameter to sweep: rate, vcs, buf, threshold, msglen, faults")
	values := flag.String("values", "0.1,0.3,0.5,0.7,0.9", "comma-separated values")
	flag.StringVar(&spec.Limiter, "limiter", spec.Limiter, "injection limiter: none, lf, dril, alo, alo-rule-a, alo-rule-b, alo-all-channels")
	flag.IntVar(&spec.K, "k", spec.K, "torus radix")
	flag.IntVar(&spec.N, "n", spec.N, "torus dimensions")
	flag.StringVar(&spec.Pattern, "pattern", spec.Pattern, "traffic pattern")
	flag.IntVar(&spec.MsgLen, "len", spec.MsgLen, "message length (flits)")
	flag.Float64Var(&spec.Rate, "rate", spec.Rate, "offered load (flits/node/cycle)")
	flag.IntVar(&spec.VCs, "vcs", spec.VCs, "virtual channels per physical channel")
	flag.Int64Var(&spec.WarmupCycles, "warmup", spec.WarmupCycles, "warm-up cycles")
	flag.Int64Var(&spec.MeasureCycles, "measure", spec.MeasureCycles, "measurement cycles")
	flag.Int64Var(&spec.DrainCycles, "drain", spec.DrainCycles, "drain cycles")
	flag.Uint64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	flag.Float64Var(&spec.Faults, "faults", 0, "fraction of channels to fail in every run [0,1)")
	flag.Uint64Var(&spec.FaultSeed, "fault-seed", spec.FaultSeed, "fault planner seed")
	jsonlPath := flag.String("jsonl", "", "also write a run manifest plus one result record per point (JSONL) to this file")

	out := flag.String("out", "", "journal the campaign under <dir>/<id>/ (manifest.json, spec.json, point checkpoints); rerun the same command to continue it")
	flag.Int64Var(&spec.CheckpointEvery, "checkpoint-every", spec.CheckpointEvery, "cycles between periodic checkpoints of the running point (0 = final-only; a local sweep without -out defaults to 0)")
	pointWall := flag.Duration("point-wall", 0, "wall-clock budget per point (0 = unlimited)")
	flag.Int64Var(&spec.StallWindow, "stall-window", 0, "declare a point stalled after this many cycles without progress (0 = off)")
	flag.IntVar(&spec.Retries, "point-retries", spec.Retries, "attempts for a crashed or stalled point before it goes terminal")
	connect := flag.String("connect", "", "run only the worker: submit this sweep to the coordinator at this URL and execute leased points")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec.Vary = *vary
	spec.PointWallMS = pointWall.Milliseconds()
	spec.Values = strings.Split(*values, ",")
	for i := range spec.Values {
		spec.Values[i] = strings.TrimSpace(spec.Values[i])
	}
	points, err := spec.Points()
	if err != nil {
		return fail(err)
	}
	given := false
	flag.Visit(func(f *flag.Flag) { given = given || f.Name == "checkpoint-every" })
	if !given {
		spec.CheckpointEvery = defaultCheckpointEvery(spec.CheckpointEvery, *out, *connect)
	}

	var jsonl *obs.JSONLWriter
	if *jsonlPath != "" {
		base, err := spec.BaseConfig()
		if err != nil {
			return fail(err)
		}
		jsonl, err = obs.CreateJSONL(*jsonlPath)
		if err != nil {
			return fail(err)
		}
		defer jsonl.Close() //nolint:errcheck // stream already flushed per record
		header := base.Manifest()
		header["vary"], header["values"] = *vary, *values
		if err := jsonl.Write(obs.NewManifest("sweep", spec.Seed, header)); err != nil {
			return fail(err)
		}
	}

	// The coordinator is in this process unless -connect names another.
	var f farm
	if *connect != "" {
		f = campaign.NewClient(*connect)
	} else if f, err = campaign.NewCoordinator(campaign.Options{Dir: *out}); err != nil {
		return fail(err)
	}
	id, created, err := f.Submit(&spec)
	if err != nil {
		return fail(err)
	}
	verb := "resumed"
	if created {
		verb = "created"
	}
	fmt.Fprintf(os.Stderr, "sweep: campaign %s %s\n", id, verb)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = runLoops(ctx, f, id, min(runtime.GOMAXPROCS(0), len(points)))
	interrupted := ctx.Err() != nil || errors.Is(err, campaign.ErrWorkerInterrupted)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	view, err := f.Status(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	completed, err := report(*vary, view.Points, jsonl)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case interrupted:
		fmt.Fprintln(os.Stderr, "sweep: interrupted; run the same command again to continue")
		return 130
	case completed < len(view.Points):
		return 1
	}
	return 0
}

// loopPoll is how long a worker loop with nothing to lease waits before it
// asks again: the last loop to finish a point is what the sweep waits for,
// and an idle loop must not add its wait on top.
const loopPoll = 20 * time.Millisecond

// runLoops runs n worker loops against the coordinator until the campaign is
// done, each leasing one point at a time onto a one-shard engine, and waits
// for all of them. It returns an interrupt if any loop was interrupted, else
// the other loops' errors, joined.
func runLoops(ctx context.Context, f farm, id string, n int) error {
	host, _ := os.Hostname()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = campaign.RunWorker(ctx, campaign.WorkerOptions{
				Transport:    f,
				Name:         fmt.Sprintf("%s-%d-%d", host, os.Getpid(), i),
				Campaign:     id,
				Poll:         loopPoll,
				ExitWhenDone: true,
				Signals:      []os.Signal{os.Interrupt, syscall.SIGTERM},
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if errors.Is(err, campaign.ErrWorkerInterrupted) {
			return err
		}
	}
	return errors.Join(errs...)
}

// report prints the campaign as it stands in the journal: the CSV header and
// one row per completed point on stdout (and, with -jsonl, one result record
// each), then every point's status on stderr. It returns how many points
// completed.
func report(vary string, recs []campaign.PointRecord, jsonl *obs.JSONLWriter) (completed int, err error) {
	fmt.Printf("%s,accepted,latency,stddev,netlatency,deadlockpct,worstdev,bestdev,aborted,retried,dropped\n", vary)
	for _, rec := range recs {
		if rec.Status != campaign.StatusCompleted || rec.Result == nil {
			continue
		}
		completed++
		r := *rec.Result
		fmt.Printf("%s,%.5f,%.2f,%.2f,%.2f,%.4f,%.1f,%.1f,%d,%d,%d\n",
			rec.Value, r.Accepted, r.AvgLatency, r.StdLatency, r.AvgNetLatency,
			r.DeadlockPct, r.WorstNodeDev, r.BestNodeDev,
			r.Aborted, r.Retried, r.Dropped)
		if jsonl != nil {
			if err := jsonl.Write(map[string]any{"t": "result", vary: rec.Value, "result": r}); err != nil {
				return completed, err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "\n%-6s %-12s %-12s %-9s %s\n", "point", "value", "status", "attempts", "detail")
	for _, rec := range recs {
		detail := rec.Outcome
		if rec.Error != "" {
			detail = rec.Error
		}
		if rec.Worker != "" {
			detail = fmt.Sprintf("%s [worker %s]", detail, rec.Worker)
		}
		fmt.Fprintf(os.Stderr, "%-6d %-12s %-12s %-9d %s\n",
			rec.Index, rec.Value, rec.Status, rec.Attempts, detail)
	}
	return completed, nil
}
