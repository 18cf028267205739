// Command campaign-worker executes sweep points for a campaignd
// coordinator: it pulls point leases over HTTP, runs each point under
// internal/supervisor (campaign.RunWorker, the loop a plain sweep runs in
// its own process), streams heartbeats and live metric snapshots while it
// runs, uploads periodic WNCP checkpoints so the point stays migratable, and
// commits the result exactly once. If the coordinator holds a migrated
// checkpoint from a dead worker, this worker resumes it bit-identically.
// Every point runs on one core; a host runs one worker process per core.
//
// Examples:
//
//	campaign-worker -connect http://127.0.0.1:8080
//	campaign-worker -connect http://farm:8080 -name rack7
//	campaign-worker -connect http://farm:8080 -exit-when-done
//
// With -monitor the worker serves its own /healthz (build version plus the
// config digest of the running point) so the fleet is probeable. The chaos
// flag -chaos-kill-after-uploads simulates a hard crash after N checkpoint
// uploads — the CI farm smoke test uses it to force a migration.
//
// Exit codes: 0 done (with -exit-when-done); 130 interrupted by signal
// (the in-flight point's final checkpoint is flushed to the coordinator
// first); 3 chaos-killed; 1 other fatal errors; 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wormnet/internal/campaign"
	"wormnet/internal/metrics"
	"wormnet/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("connect", "", "coordinator base URL (required), e.g. http://127.0.0.1:8080")
	name := flag.String("name", "", "worker name shown in leases and manifests (default host-pid)")
	campaignID := flag.String("campaign", "", "work only this campaign id (default: any)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between acquire attempts when no work is assignable")
	exitWhenDone := flag.Bool("exit-when-done", false, "exit once the coordinator reports every campaign terminal")
	monitorAddr := flag.String("monitor", "", "serve the worker's own /healthz and /debug/pprof on this address")
	killAfter := flag.Int("chaos-kill-after-uploads", 0, "chaos hook: simulate a hard crash after this many checkpoint uploads (0 = off)")
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "campaign-worker: -connect is required")
		return 2
	}

	var monitor *obs.Monitor
	if *monitorAddr != "" {
		monitor = obs.NewMonitor(metrics.NewRegistry(), obs.NewManifest("campaign-worker", 0, nil), nil)
		monitor.SetBuildInfo(obs.BuildVersion())
		if err := monitor.Serve(*monitorAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer monitor.Shutdown(time.Second) //nolint:errcheck // exiting
		fmt.Fprintf(os.Stderr, "campaign-worker: monitor on http://%s\n", monitor.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := campaign.RunWorker(ctx, campaign.WorkerOptions{
		URL:              *url,
		Name:             *name,
		Campaign:         *campaignID,
		Poll:             *poll,
		ExitWhenDone:     *exitWhenDone,
		KillAfterUploads: *killAfter,
		Signals:          []os.Signal{os.Interrupt, syscall.SIGTERM},
		Monitor:          monitor,
	})
	switch {
	case err == nil:
		return 0
	case errors.Is(err, campaign.ErrChaosKilled):
		fmt.Fprintln(os.Stderr, err)
		return 3
	case errors.Is(err, campaign.ErrWorkerInterrupted), errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "campaign-worker: interrupted")
		return 130
	default:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
}
