package campaign

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wormnet/internal/metrics"
)

// TestProgressAndETA pins the live-progress math on the test clock: lease
// heartbeats turn into fractional point progress, completed points into a
// rate, and the two into an ETA.
func TestProgressAndETA(t *testing.T) {
	c, clk := newTestCoordinator(t, "")
	spec := testSpec() // 2 points, 600 cycles each
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	view, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Progress != 0 || view.ElapsedMS != 0 || view.EtaMS != -1 {
		t.Fatalf("pre-grant view: progress=%v elapsed=%d eta=%d, want 0/0/-1",
			view.Progress, view.ElapsedMS, view.EtaMS)
	}

	resp, err := c.Acquire(acquireReq("w1"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("acquire: %+v err=%v", resp, err)
	}
	a := resp.Assignment
	if err := c.Renew(id, a.Lease, RenewRequest{Cycle: 300}); err != nil {
		t.Fatal(err)
	}
	view, err = c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Leases) != 1 || view.Leases[0].Progress != 0.5 {
		t.Fatalf("lease at cycle 300/600 should show progress 0.5: %+v", view.Leases)
	}
	if view.Progress != 0.25 {
		t.Fatalf("campaign progress = %v, want 0.25 (half of one of two points)", view.Progress)
	}

	clk.advance(10 * time.Second)
	c.expireLeases(clk.now()) // the lease TTL is 1s; re-grant after expiry
	resp, err = c.Acquire(acquireReq("w1"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("re-acquire: %+v err=%v", resp, err)
	}
	a = resp.Assignment
	if err := c.Complete(id, a.Lease, CompleteRequest{Digest: a.Digest}); err != nil {
		t.Fatal(err)
	}
	view, err = c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Progress != 0.5 {
		t.Fatalf("one of two points done: progress = %v, want 0.5", view.Progress)
	}
	if view.ElapsedMS != 10_000 {
		t.Fatalf("elapsed = %dms, want 10000", view.ElapsedMS)
	}
	// Half done in 10s extrapolates to 10s remaining.
	if view.EtaMS != 10_000 {
		t.Fatalf("eta = %dms, want 10000", view.EtaMS)
	}

	resp, err = c.Acquire(acquireReq("w2"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("acquire point 1: %+v err=%v", resp, err)
	}
	a = resp.Assignment
	if err := c.Complete(id, a.Lease, CompleteRequest{Digest: a.Digest}); err != nil {
		t.Fatal(err)
	}
	view, err = c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Done || view.Progress != 1 || view.EtaMS != 0 {
		t.Fatalf("done campaign: done=%v progress=%v eta=%d, want true/1/0",
			view.Done, view.Progress, view.EtaMS)
	}
}

// engSamples builds a heartbeat metrics snapshot with one delivered/denied
// counter pair.
func engSamples(t *testing.T, delivered, denied int64) []metrics.Sample {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.NewCounter("sim_messages_delivered_total", "").Add(delivered)
	reg.NewCounter("sim_injection_denied_total", "").Add(denied)
	return reg.Snapshot()
}

// TestFarmView checks the fleet snapshot: campaign rows, worker rows with
// point value and progress, and message totals merged across committed
// points and live heartbeats.
func TestFarmView(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	spec := testSpec()
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Point 0 completes carrying engine metrics; point 1 stays live with a
	// heartbeat snapshot.
	resp, err := c.Acquire(acquireReq("w1"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("acquire: %+v err=%v", resp, err)
	}
	a := resp.Assignment
	if err := c.Complete(id, a.Lease, CompleteRequest{
		Digest:  a.Digest,
		Metrics: engSamples(t, 100, 7),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Acquire(acquireReq("w2"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("acquire point 1: %+v err=%v", resp, err)
	}
	a = resp.Assignment
	if err := c.Renew(id, a.Lease, RenewRequest{Cycle: 150, Metrics: engSamples(t, 40, 3)}); err != nil {
		t.Fatal(err)
	}

	farm := c.Farm()
	if len(farm.Campaigns) != 1 {
		t.Fatalf("farm lists %d campaigns, want 1", len(farm.Campaigns))
	}
	row := farm.Campaigns[0]
	if row.ID != id || row.Points != 2 || row.Completed != 1 || row.Running != 1 || row.Done {
		t.Fatalf("campaign row wrong: %+v", row)
	}
	if row.Progress != 0.625 { // (1 + 150/600) / 2
		t.Fatalf("campaign progress = %v, want 0.625", row.Progress)
	}
	if len(farm.Workers) != 1 {
		t.Fatalf("farm lists %d workers, want 1", len(farm.Workers))
	}
	w := farm.Workers[0]
	if w.Worker != "w2" || w.Campaign != id || w.Point != a.Point || w.Cycle != 150 || w.Progress != 0.25 {
		t.Fatalf("worker row wrong: %+v", w)
	}
	if w.Value != spec.Values[a.Point] {
		t.Fatalf("worker row value = %q, want swept value %q", w.Value, spec.Values[a.Point])
	}
	if farm.Delivered != 140 || farm.Denied != 10 {
		t.Fatalf("merged totals delivered=%d denied=%d, want 140/10", farm.Delivered, farm.Denied)
	}
}

// readSSE reads the first data: line of a server-sent-event stream into v.
func readSSE(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("%s: content type %q", url, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := json.Unmarshal([]byte(line), v); err != nil {
				t.Fatalf("decode SSE event: %v", err)
			}
			return
		}
	}
	t.Fatalf("%s: stream ended without a data event: %v", url, sc.Err())
}

// TestTelemetryEndpoints drives the HTTP face: /farm JSON, the wire keys of
// the lease and campaign-list rows, both SSE streams, and the embedded
// dashboard.
func TestTelemetryEndpoints(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	id, _, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(acquireReq("w1")); err != nil {
		t.Fatal(err)
	}
	s := NewServer(c)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	var farm FarmView
	get("/farm", &farm)
	if len(farm.Campaigns) != 1 || farm.Campaigns[0].Running != 1 {
		t.Fatalf("/farm view wrong: %+v", farm)
	}

	// The wire keys of a campaign's lease rows and of the GET /campaigns
	// rows: every key those rows have ever carried, plus the fleet view's,
	// so one row type per thing stays additive on the wire.
	var keyed struct{ Leases []map[string]any }
	get("/campaigns/"+id, &keyed)
	var list []map[string]any
	get("/campaigns", &list)
	if len(keyed.Leases) != 1 || len(list) != 1 {
		t.Fatalf("%d lease rows and %d campaign rows, want one each", len(keyed.Leases), len(list))
	}
	for _, row := range []struct {
		name string
		got  map[string]any
		want []string
	}{
		{"lease row", keyed.Leases[0],
			[]string{"point", "worker", "lease", "cycle", "attempt", "expires_ms", "progress", "campaign", "value"}},
		{"campaign row", list[0],
			[]string{"id", "vary", "points", "completed", "done", "failed", "running", "elapsed_ms", "eta_ms"}},
	} {
		for _, k := range row.want {
			if _, ok := row.got[k]; !ok {
				t.Errorf("%s lacks key %q: %v", row.name, k, row.got)
			}
		}
	}

	var sseFarm FarmView
	readSSE(t, srv.URL+"/farm/events?interval_ms=100", &sseFarm)
	if len(sseFarm.Campaigns) != 1 || sseFarm.Campaigns[0].ID != id {
		t.Fatalf("/farm/events first event wrong: %+v", sseFarm)
	}

	var status StatusView
	readSSE(t, srv.URL+"/campaigns/"+id+"/events?interval_ms=100", &status)
	if status.ID != id || len(status.Leases) != 1 {
		t.Fatalf("/campaigns/{id}/events first event wrong: %+v", status)
	}

	resp, err := http.Get(srv.URL + "/campaigns/nosuch/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown campaign: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/dash: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body[:n]), "/farm/events") {
		t.Fatal("/dash page does not subscribe to /farm/events")
	}
}

// TestServeAndShutdown drives the server's own listener: Serve binds a port
// that Addr names, the routes answer there, and Shutdown stops the
// coordinator granting work and closes the listener.
func TestServeAndShutdown(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	if _, _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	s := NewServer(c)
	if s.Addr() != "" {
		t.Fatalf("Addr before Serve = %q, want empty", s.Addr())
	}
	if err := s.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()
	for _, path := range []string{"/healthz", "/campaigns"} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Acquire(acquireReq("w1")); err != nil || r.Status != AcquireWait {
		t.Fatalf("a shut-down coordinator answered %+v (%v), want a wait", r, err)
	}
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("the server still answers after Shutdown")
	}
}
