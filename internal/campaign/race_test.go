package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestFarmConcurrencyStress hammers one coordinator from many fronts at
// once, over each transport — goroutine workers acquiring, renewing, checkpointing, completing,
// failing and silently abandoning leases, while scrapers poll the status
// and metrics endpoints — and then checks the books balance: every point
// terminal, completed+failed counters matching the manifest, no lease left
// behind. Run it under -race; that is its real job.
func TestFarmConcurrencyStress(t *testing.T) {
	overTransports(t, testFarmConcurrencyStress)
}

func testFarmConcurrencyStress(t *testing.T, open func(*Coordinator) farmEnd) {
	spec := testSpec()
	spec.Values = []string{
		"0.10", "0.15", "0.20", "0.25", "0.30", "0.35", "0.40", "0.45",
		"0.50", "0.55", "0.60", "0.65", "0.70", "0.75", "0.80", "0.85",
	}
	spec.Retries = 4

	coord, err := NewCoordinator(Options{LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The herd goes through the transport under test; the scrapers below
	// always read over HTTP.
	cl := open(coord)
	ts := httptest.NewServer(NewServer(coord).Handler())
	defer ts.Close()

	id, _, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One valid checkpoint blob, uploaded on random leases to stress the
	// store path (decode validation only cares the bytes are a real WNCP).
	ckpt := snapshotBytes(t, spec, 0, 100)

	const workers = 8
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	errCh := make(chan error, workers+2)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("stress-%d", w)
			for iter := 0; time.Now().Before(deadline); iter++ {
				resp, err := cl.Acquire(AcquireRequest{
					Worker: name, Version: coord.Version(), Protocol: ProtocolVersion,
				})
				if err != nil {
					errCh <- fmt.Errorf("%s acquire: %w", name, err)
					return
				}
				switch resp.Status {
				case AcquireDone:
					return
				case AcquireWait:
					time.Sleep(5 * time.Millisecond)
					continue
				}
				a := resp.Assignment
				// Deterministic per-(worker,iteration) behaviour mix. Stale
				// errors are expected everywhere: another goroutine or the TTL
				// may have taken the lease between our calls.
				switch (w + iter) % 8 {
				case 0, 1, 2: // plain commit
					cl.Complete(a.Campaign, a.Lease, CompleteRequest{Digest: a.Digest}) //nolint:errcheck
				case 3: // checkpoint then commit
					cl.UploadCheckpoint(a.Campaign, a.Lease, ckpt)                      //nolint:errcheck
					cl.Complete(a.Campaign, a.Lease, CompleteRequest{Digest: a.Digest}) //nolint:errcheck
				case 4: // renew then commit
					cl.Renew(a.Campaign, a.Lease, RenewRequest{Cycle: int64(iter)})     //nolint:errcheck
					cl.Complete(a.Campaign, a.Lease, CompleteRequest{Digest: a.Digest}) //nolint:errcheck
				case 5: // crash
					cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "crashed", Error: "stress"}) //nolint:errcheck
				case 6: // interrupt (does not consume an attempt)
					cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "interrupted"}) //nolint:errcheck
				case 7: // silent death; the TTL reaps it
					time.Sleep(60 * time.Millisecond)
				}
			}
		}(w)
	}

	// Scrapers: JSON status and Prometheus text, concurrently with the herd.
	done := make(chan struct{})
	for _, path := range []string{"/campaigns/" + id, "/metrics"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errCh <- fmt.Errorf("scrape %s: %w", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("scrape %s: %d: %s", path, resp.StatusCode, body)
					return
				}
				if path != "/metrics" {
					var v StatusView
					if err := json.Unmarshal(body, &v); err != nil {
						errCh <- fmt.Errorf("scrape %s: bad json: %w", path, err)
						return
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(path)
	}

	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()

	// Poll for campaign completion while everything runs.
	for !coord.Done() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	<-wgWait
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if !coord.Done() {
		t.Fatal("stress campaign did not converge before the deadline")
	}
	man, err := coord.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	completed, failed := 0, 0
	for i := range man.Points {
		rec := man.Points[i]
		if !rec.Status.Terminal() {
			t.Errorf("point %d not terminal: %+v", i, rec)
		}
		switch rec.Status {
		case StatusCompleted:
			completed++
			if rec.Worker == "" {
				t.Errorf("point %d completed with no worker recorded", i)
			}
		case StatusFailed, StatusStalled:
			failed++
			if rec.Attempts < maxAttempts(spec.Retries) {
				t.Errorf("point %d terminal after only %d attempts", i, rec.Attempts)
			}
		}
	}
	if completed+failed != len(man.Points) {
		t.Errorf("books don't balance: %d completed + %d failed != %d points",
			completed, failed, len(man.Points))
	}

	view, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Leases) != 0 {
		t.Errorf("leases outlived the campaign: %+v", view.Leases)
	}
	gauges := map[string]float64{}
	for _, s := range coord.Registry().Snapshot() {
		gauges[s.Name] = s.Value
	}
	if gauges["farm_points_completed_total"] != float64(completed) {
		t.Errorf("completed counter %v, manifest says %d", gauges["farm_points_completed_total"], completed)
	}
}
