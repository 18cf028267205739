package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"wormnet/internal/campaign"
	"wormnet/internal/sim"
)

// campaignProbe measures what the farm adds to a point: eight tiny 4-ary
// 2-cube points run directly, then the same eight through a coordinator on
// loopback with one in-process worker (submit, lease, heartbeat, commit).
// The coordinator keeps its journal in memory, so nothing is written.
func campaignProbe(r *run) error {
	root := r.rec.begin("bench.campaignProbe", noSpan, 0)
	defer r.rec.end(root)

	spec := campaign.DefaultSpec()
	spec.K, spec.N = 4, 2
	spec.Vary = "rate"
	for i := 1; i <= 8; i++ {
		spec.Values = append(spec.Values, strconv.FormatFloat(0.2*float64(i), 'g', -1, 64))
	}
	spec.WarmupCycles, spec.MeasureCycles, spec.DrainCycles = 200, 600, 100
	spec.Seed = r.seed
	points, err := spec.Points()
	if err != nil {
		return err
	}

	id := r.rec.begin("sim.Engine.Run x 8 points", root, 0)
	t := time.Now()
	delivered := int64(0)
	for _, p := range points {
		e, err := sim.New(p.Config)
		if err != nil {
			return err
		}
		delivered += e.Run().Delivered
		e.Close()
	}
	direct := time.Since(t)
	r.rec.end(id)

	coord, err := campaign.NewCoordinator(campaign.Options{})
	if err != nil {
		return err
	}
	srv := campaign.NewServer(coord)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		return fmt.Errorf("campaign server: %w", err)
	}
	defer srv.Close()
	id = r.rec.begin("campaign.RunWorker x 8 points", root, 0)
	t = time.Now()
	cid, _, err := coord.Submit(&spec)
	if err != nil {
		return err
	}
	err = campaign.RunWorker(context.Background(), campaign.WorkerOptions{
		URL: "http://" + srv.Addr(), Name: "bench", ExitWhenDone: true,
		Poll: 10 * time.Millisecond, Output: io.Discard,
	})
	farm := time.Since(t)
	r.rec.end(id)
	if err != nil {
		return fmt.Errorf("campaign worker: %w", err)
	}

	r.check(coord.Done(), "the farm did not finish the campaign")
	farmDelivered := int64(0)
	if man, err := coord.Manifest(cid); err != nil {
		r.checkErr(err, "campaign manifest")
	} else {
		for _, p := range man.Points {
			if p.Result != nil {
				farmDelivered += p.Result.Delivered
			}
		}
	}
	r.check(farmDelivered == delivered, "farm delivered %d messages, direct runs %d", farmDelivered, delivered)

	n := float64(len(points))
	r.res.set("campaign.point_overhead_ms", 1e3*(farm-direct).Seconds()/n)
	r.res.set("campaign.points_per_s", n/farm.Seconds())
	return nil
}
