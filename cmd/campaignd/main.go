// Command campaignd is the sweep-farm coordinator: it accepts experiment
// campaigns as JSON specs over HTTP, expands them into sweep points,
// journals every state transition to <dir>/<id>/manifest.json (atomic
// writes, exactly-once result commit), and dispatches points to
// campaign-worker processes and sweep -connect loops over a lease-based pull
// protocol with work-stealing and checkpoint migration — a worker that dies
// mid-point is resumed bit-identically by the next worker from its last
// uploaded checkpoint. It is the one coordinator that runs on its own: a
// sweep -connect submits its flag-built spec here (resuming a campaign
// campaignd already holds), runs loops and prints the sweep's CSV.
//
// The HTTP surface (see internal/campaign): POST /campaigns to submit,
// GET /campaigns/{id} for live progress, /metrics for the farm's Prometheus
// counters, /healthz (with build version) for probes, /dash for the live
// HTML fleet dashboard (/farm and the /…/events SSE streams feed it).
// Workers of a different build version are rejected unless
// -allow-version-skew.
//
// Examples:
//
//	campaignd -addr :8080 -dir farm/
//	campaignd -addr 127.0.0.1:0 -dir farm/ -spec spec.json -exit-when-done
//	curl -s -XPOST --data @spec.json localhost:8080/campaigns
//	sweep -vary rate -values 0.3,0.6,0.9 -connect http://127.0.0.1:8080
//
// With -spec the spec is submitted at startup and the campaign id is
// printed on stdout (scripts capture it). With -exit-when-done the daemon
// exits once every campaign has been terminal for two seconds: 0 if every
// point completed, 1 otherwise. SIGINT/SIGTERM drain gracefully (stop
// granting leases, let in-flight requests finish) and exit 130.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wormnet/internal/campaign"
	"wormnet/internal/obs"
)

// exitGrace is how long -exit-when-done keeps serving once every campaign
// is terminal: the workers that finished the last points still ask for more
// work, and a sweep -connect then reads the rows it prints. It is a margin,
// not a guarantee: a sweep -connect that has not made its final read within
// it (a heavily loaded host) fails with exit 1 and prints no CSV.
const exitGrace = 2 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "campaigns", "journal root: each campaign journals manifest, spec and migrated checkpoints under <dir>/<id>/")
	leaseTTL := flag.Duration("lease-ttl", campaign.DefaultLeaseTTL, "lease time-to-live before a silent worker's point is stolen")
	specPath := flag.String("spec", "", "submit this campaign spec (JSON file) at startup and print its id on stdout")
	exitWhenDone := flag.Bool("exit-when-done", false, "exit 2s after every campaign is terminal (0 = all points completed, 1 otherwise)")
	allowSkew := flag.Bool("allow-version-skew", false, "admit workers of any build version (results are then not guaranteed bit-identical)")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	coord, err := campaign.NewCoordinator(campaign.Options{
		Dir:              *dir,
		LeaseTTL:         *leaseTTL,
		AllowVersionSkew: *allowSkew,
	})
	if err != nil {
		return fail(err)
	}
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return fail(err)
		}
		spec, err := campaign.DecodeSpec(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		id, created, err := coord.Submit(spec)
		if err != nil {
			return fail(err)
		}
		verb := "resumed"
		if created {
			verb = "created"
		}
		fmt.Fprintf(os.Stderr, "campaignd: %s campaign %s (%d points)\n", verb, id, len(spec.Values))
		fmt.Println(id)
	}

	srv := campaign.NewServer(coord)
	if err := srv.Serve(*addr); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "campaignd: serving on http://%s (build %s, lease TTL %v, journal %s)\n",
		srv.Addr(), obs.BuildVersion(), coord.LeaseTTL(), *dir)
	fmt.Fprintf(os.Stderr, "campaignd: live dashboard at http://%s/dash (fleet JSON at /farm)\n", srv.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	var doneSince time.Time
	for {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "campaignd: %v — draining\n", sig)
			srv.Shutdown(5 * time.Second) //nolint:errcheck // exiting either way
			return 130
		case now := <-tick.C:
			if !*exitWhenDone || !coord.Done() {
				doneSince = time.Time{}
				continue
			}
			if doneSince.IsZero() {
				doneSince = now
			}
			if now.Sub(doneSince) < exitGrace {
				continue
			}
			srv.Shutdown(2 * time.Second) //nolint:errcheck // exiting either way
			for _, row := range coord.List() {
				if row.Completed != row.Points {
					fmt.Fprintf(os.Stderr, "campaignd: campaign %s ended with non-completed points\n", row.ID)
					return 1
				}
			}
			fmt.Fprintln(os.Stderr, "campaignd: all campaigns completed")
			return 0
		}
	}
}
