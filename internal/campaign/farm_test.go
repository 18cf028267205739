package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
	"wormnet/internal/stats"
)

// farmEnd is a coordinator as a test reaches it: the worker's Transport plus
// submission.
type farmEnd interface {
	Transport
	Submit(spec *Spec) (id string, created bool, err error)
}

// transports is every way to reach a coordinator — over HTTP, or by function
// call in the same process (what a plain `sweep` does). The farm suite takes
// it as one more input: every contract below holds over both.
var transports = []struct {
	name string
	open func(t *testing.T, c *Coordinator) farmEnd
}{
	{"http", func(t *testing.T, c *Coordinator) farmEnd {
		ts := httptest.NewServer(NewServer(c).Handler())
		t.Cleanup(ts.Close)
		return NewClient(ts.URL)
	}},
	{"inprocess", func(_ *testing.T, c *Coordinator) farmEnd { return c }},
}

// overTransports runs body once per transport; open connects the
// coordinator the body built.
func overTransports(t *testing.T, body func(t *testing.T, open func(*Coordinator) farmEnd)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			body(t, func(c *Coordinator) farmEnd { return tr.open(t, c) })
		})
	}
}

// farmSpec is a two-point sweep small enough to run in-process but long
// enough that the first periodic checkpoint lands well before the end.
func farmSpec() *Spec {
	s := testSpec()
	s.WarmupCycles, s.MeasureCycles, s.DrainCycles = 200, 800, 300
	s.CheckpointEvery = 150
	s.Retries = 3
	return s
}

// serialResults runs every point of the spec to completion in-process — the
// golden the farm must reproduce bit-identically.
func serialResults(t *testing.T, spec *Spec) []stats.Result {
	t.Helper()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]stats.Result, len(points))
	for i, pt := range points {
		e, err := sim.New(pt.Config)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = e.Run()
		e.Close()
	}
	return out
}

// TestFarmChaosMigration is the acceptance test for the whole subsystem:
// worker A leases point 0, uploads one checkpoint, and chaos-dies without a
// word to the coordinator; after the lease TTL worker B steals the point,
// resumes from the migrated checkpoint, and finishes the campaign. Every
// committed result must be bit-identical to a serial, never-interrupted run.
func TestFarmChaosMigration(t *testing.T) {
	overTransports(t, testFarmChaosMigration)
}

func testFarmChaosMigration(t *testing.T, open func(*Coordinator) farmEnd) {
	spec := farmSpec()
	golden := serialResults(t, spec)
	coord, err := NewCoordinator(Options{Dir: t.TempDir(), LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	far := open(coord)
	id, created, err := far.Submit(spec)
	if err != nil || !created {
		t.Fatalf("submit: id=%s created=%v err=%v", id, created, err)
	}

	// Worker A hard-crashes after its first checkpoint upload. It must exit
	// with the chaos sentinel, leaving its lease live.
	errA := RunWorker(context.Background(), WorkerOptions{
		Transport:        far,
		Name:             "chaos-a",
		Poll:             20 * time.Millisecond,
		KillAfterUploads: 1,
		Output:           io.Discard,
	})
	if !errors.Is(errA, ErrChaosKilled) {
		t.Fatalf("worker A: want chaos kill, got %v", errA)
	}
	view, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Done {
		t.Fatal("campaign done with a dead worker holding a lease")
	}

	// Worker B picks up the untouched point immediately, waits out A's
	// lease, steals point 0 with its checkpoint, and drains the campaign.
	errB := RunWorker(context.Background(), WorkerOptions{
		Transport:    far,
		Name:         "mig-b",
		Poll:         20 * time.Millisecond,
		ExitWhenDone: true,
		Output:       io.Discard,
	})
	if errB != nil {
		t.Fatalf("worker B: %v", errB)
	}

	if !coord.Done() {
		t.Fatal("worker B exited but coordinator not done")
	}
	man, err := coord.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Points {
		rec := man.Points[i]
		if rec.Status != StatusCompleted || rec.Result == nil {
			t.Fatalf("point %d not completed: %+v", i, rec)
		}
		if !reflect.DeepEqual(*rec.Result, golden[i]) {
			t.Errorf("point %d result diverged from serial run:\n  farm   %+v\n  serial %+v",
				i, *rec.Result, golden[i])
		}
	}

	// Point 0 must prove the migration: finished by B, on its second
	// attempt, resumed from the cycle A checkpointed at.
	p0 := man.Points[0]
	if p0.Worker != "mig-b" {
		t.Errorf("point 0 finished by %q, want the stealing worker", p0.Worker)
	}
	if p0.Attempts != 2 {
		t.Errorf("point 0 attempts = %d, want 2 (A's grant + B's steal)", p0.Attempts)
	}
	if p0.ResumedFrom <= 0 {
		t.Errorf("point 0 resumed_from = %d, want a positive checkpoint cycle", p0.ResumedFrom)
	}
	if p0.Checkpoint != "" {
		t.Errorf("point 0 checkpoint not cleared after commit: %q", p0.Checkpoint)
	}

	// The farm counters saw the story too.
	counters := map[string]float64{}
	for _, s := range coord.Registry().Snapshot() {
		counters[s.Name] = s.Value
	}
	if counters["farm_checkpoint_resume_grants_total"] < 1 {
		t.Errorf("no resume grant counted: %v", counters["farm_checkpoint_resume_grants_total"])
	}
	if counters["farm_leases_expired_total"] < 1 {
		t.Errorf("no lease expiry counted: %v", counters["farm_leases_expired_total"])
	}
	if counters["farm_points_completed_total"] != 2 {
		t.Errorf("completed counter = %v, want 2", counters["farm_points_completed_total"])
	}

	// The merged view aggregates both points' stats.
	final, err := coord.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.MergedResult == nil {
		t.Fatalf("final status incomplete: done=%v merged=%v", final.Done, final.MergedResult)
	}
	wantDelivered := golden[0].Delivered + golden[1].Delivered
	if final.MergedResult.Delivered != wantDelivered {
		t.Errorf("merged delivered = %d, want %d", final.MergedResult.Delivered, wantDelivered)
	}
}

// TestFarmInterruptReleasesLease covers the graceful half of migration: a
// cancelled worker abandons cleanly and a second worker finishes the
// campaign with results still bit-identical to serial.
func TestFarmInterruptReleasesLease(t *testing.T) {
	overTransports(t, testFarmInterruptReleasesLease)
}

func testFarmInterruptReleasesLease(t *testing.T, open func(*Coordinator) farmEnd) {
	spec := farmSpec()
	golden := serialResults(t, spec)
	coord, err := NewCoordinator(Options{LeaseTTL: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	far := open(coord)
	id, _, err := far.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel worker A shortly after it starts its first point.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	errA := RunWorker(ctx, WorkerOptions{
		Transport: far,
		Name:      "cancelled-a",
		Poll:      20 * time.Millisecond,
		Output:    io.Discard,
	})
	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("worker A: want context.Canceled, got %v", errA)
	}

	errB := RunWorker(context.Background(), WorkerOptions{
		Transport:    far,
		Name:         "finisher-b",
		Poll:         20 * time.Millisecond,
		ExitWhenDone: true,
		Output:       io.Discard,
	})
	if errB != nil {
		t.Fatalf("worker B: %v", errB)
	}
	man, err := coord.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Points {
		if man.Points[i].Status != StatusCompleted {
			t.Fatalf("point %d not completed: %+v", i, man.Points[i])
		}
		if !reflect.DeepEqual(*man.Points[i].Result, golden[i]) {
			t.Errorf("point %d diverged from serial run", i)
		}
	}
}

// signalOnUpload sends this process sig once, right after the first
// checkpoint upload went through: a deterministic "operator hits ^C
// mid-point".
type signalOnUpload struct {
	Transport
	sig  syscall.Signal
	once sync.Once
}

func (s *signalOnUpload) UploadCheckpoint(campaign, lease string, data []byte) error {
	err := s.Transport.UploadCheckpoint(campaign, lease, data)
	s.once.Do(func() { syscall.Kill(syscall.Getpid(), s.sig) }) //nolint:errcheck // our own pid
	return err
}

// TestFarmSignalFlushesFinalCheckpoint is the graceful interrupt as every
// caller wires it: the same signal in Signals and behind the context
// (signal.NotifyContext). The supervisor's final flush must reach the
// coordinator although that signal has cancelled the context — the stored
// checkpoint is the cycle the worker stopped at, not the last periodic one —
// the lease is released at once without charging an attempt, and the next
// worker resumes from exactly that cycle to the serial result.
func TestFarmSignalFlushesFinalCheckpoint(t *testing.T) {
	overTransports(t, func(t *testing.T, open func(*Coordinator) farmEnd) {
		spec := farmSpec()
		spec.Values = []string{"0.5"}
		spec.MeasureCycles = 40_000 // ~0.2 s: the signal lands long before the end
		golden := serialResults(t, spec)
		// A lease that outlives the test: worker B gets the point only if A
		// released it.
		coord, err := NewCoordinator(Options{LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		far := open(coord)
		id, _, err := far.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}

		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGUSR1)
		defer stop()
		var log bytes.Buffer
		errA := RunWorker(ctx, WorkerOptions{
			Transport: &signalOnUpload{Transport: far, sig: syscall.SIGUSR1},
			Name:      "interrupted-a",
			Signals:   []os.Signal{syscall.SIGUSR1},
			Output:    &log,
		})
		if !errors.Is(errA, ErrWorkerInterrupted) {
			t.Fatalf("worker A: want ErrWorkerInterrupted, got %v\n%s", errA, log.String())
		}
		var endCycle int64
		_, tail, _ := strings.Cut(log.String(), "at cycle ")
		if _, err := fmt.Sscanf(tail, "%d, checkpoint migrated", &endCycle); err != nil {
			t.Fatalf("worker A did not report a migrated final checkpoint:\n%s", log.String())
		}
		data, err := coord.DownloadCheckpoint(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Now != endCycle || endCycle >= spec.MeasureCycles {
			t.Fatalf("coordinator holds cycle %d, worker A stopped mid-point at cycle %d", snap.Now, endCycle)
		}

		errB := RunWorker(context.Background(), WorkerOptions{
			Transport:    far,
			Name:         "finisher-b",
			ExitWhenDone: true,
			Output:       io.Discard,
		})
		if errB != nil {
			t.Fatalf("worker B: %v", errB)
		}
		man, err := coord.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		p0 := man.Points[0]
		if p0.Status != StatusCompleted || !reflect.DeepEqual(*p0.Result, golden[0]) {
			t.Fatalf("point 0 diverged from serial run: %+v", p0)
		}
		if p0.ResumedFrom != endCycle || p0.Attempts != 1 {
			t.Errorf("point 0 resumed from %d on attempt %d, want cycle %d on attempt 1 (an interrupt is not a failure)",
				p0.ResumedFrom, p0.Attempts, endCycle)
		}
	})
}

// keepUploads keeps a copy of every checkpoint the worker uploads.
type keepUploads struct {
	Transport
	data [][]byte
}

func (k *keepUploads) UploadCheckpoint(campaign, lease string, data []byte) error {
	k.data = append(k.data, bytes.Clone(data))
	return k.Transport.UploadCheckpoint(campaign, lease, data)
}

// TestCheckpointCarriesMetrics decodes every checkpoint a worker uploads and
// finds the engine's registry in it, as SnapshotInto took it: the six mirrored
// totals are the snapshot's own Generated … Dropped, at its own cycle.
func TestCheckpointCarriesMetrics(t *testing.T) {
	spec := farmSpec()
	spec.Values = []string{"0.6"}
	spec.CheckpointEvery = 300
	coord, err := NewCoordinator(Options{LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	up := &keepUploads{Transport: coord}
	if err := RunWorker(context.Background(), WorkerOptions{
		Transport: up, Name: "w", ExitWhenDone: true, Output: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	if len(up.data) < 2 {
		t.Fatalf("%d checkpoints uploaded, want several", len(up.data))
	}
	for _, data := range up.data {
		snap, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		mirrors := map[string]int64{
			"sim_messages_generated_total":  snap.Generated,
			"sim_messages_delivered_total":  snap.Delivered,
			"sim_deadlock_recoveries_total": snap.Recovered,
			"sim_messages_aborted_total":    snap.Aborted,
			"sim_messages_retried_total":    snap.Retried,
			"sim_messages_dropped_total":    snap.Dropped,
		}
		for _, s := range snap.Metrics {
			if want, ok := mirrors[s.Name]; ok {
				if s.Value != float64(want) {
					t.Errorf("checkpoint at cycle %d: %s %v, the snapshot's total %d", snap.Now, s.Name, s.Value, want)
				}
				delete(mirrors, s.Name)
			}
		}
		if len(mirrors) != 0 {
			t.Errorf("checkpoint at cycle %d: its registry lacks %v", snap.Now, mirrors)
		}
	}
}

// TestLocalSweepContract is what a plain `sweep -out dir` promises, under go
// test for the first time: a coordinator journaling to dir and a worker in
// the same process give the serial results; killed mid-point, a *new*
// coordinator on the same dir — the same command run again — finishes the
// campaign from the journaled checkpoint, bit-identically.
func TestLocalSweepContract(t *testing.T) {
	spec := farmSpec()
	golden := serialResults(t, spec)
	dir := t.TempDir()

	run := func(kill int) (*Coordinator, string, error) {
		coord, err := NewCoordinator(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return coord, id, RunWorker(context.Background(), WorkerOptions{
			Transport:        coord,
			Campaign:         id,
			ExitWhenDone:     true,
			KillAfterUploads: kill,
			Output:           io.Discard,
		})
	}
	if _, _, err := run(1); !errors.Is(err, ErrChaosKilled) {
		t.Fatalf("first run: want chaos kill, got %v", err)
	}
	coord, id, err := run(0)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	man, err := coord.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range man.Points {
		if rec.Status != StatusCompleted || !reflect.DeepEqual(*rec.Result, golden[i]) {
			t.Errorf("point %d diverged from serial run: %+v", i, rec)
		}
	}
	if man.Points[0].ResumedFrom <= 0 || man.Points[0].Attempts != 2 {
		t.Errorf("point 0 did not resume from the journaled checkpoint: %+v", man.Points[0])
	}
	if man.Points[1].ResumedFrom != 0 {
		t.Errorf("point 1 never ran before the kill, yet resumed from %d", man.Points[1].ResumedFrom)
	}
}

// TestLocalSweepLoops is a local sweep's shape: several worker loops share
// one in-process coordinator, each point on its own one-shard engine. Every
// point is leased once and committed once, and the manifest carries the
// results of a sweep that ran its points one at a time.
func TestLocalSweepLoops(t *testing.T) {
	spec := farmSpec()
	spec.Values = []string{"0.2", "0.4", "0.6", "0.8", "1.0"}
	sweep := func(loops int) *Manifest {
		coord, err := NewCoordinator(Options{})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, loops)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = RunWorker(context.Background(), WorkerOptions{
					Transport:    coord,
					Name:         fmt.Sprintf("loop-%d", i),
					Campaign:     id,
					Poll:         10 * time.Millisecond,
					ExitWhenDone: true,
					Output:       io.Discard,
				})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%d loops: loop %d: %v", loops, i, err)
			}
		}
		man, err := coord.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		return man
	}
	one, three := sweep(1), sweep(3)
	for i, rec := range three.Points {
		switch {
		case rec.Status != StatusCompleted || rec.Result == nil:
			t.Errorf("point %d not completed: %+v", i, rec)
		case rec.Attempts != 1:
			t.Errorf("point %d took %d attempts, want 1", i, rec.Attempts)
		case !reflect.DeepEqual(rec.Result, one.Points[i].Result):
			t.Errorf("point %d diverged from the one-loop sweep:\n  three loops %+v\n  one loop    %+v",
				i, *rec.Result, one.Points[i].Result)
		}
	}
}

// countAcquires counts the worker loop's acquire attempts.
type countAcquires struct {
	Transport
	n int
}

func (c *countAcquires) Acquire(req AcquireRequest) (*AcquireResponse, error) {
	c.n++
	return c.Transport.Acquire(req)
}

// TestRefusalsOverTransports: every typed refusal of the coordinator reads
// as a refusal — not retryable, same cause — whichever side of the wire the
// caller is on, and a refused worker gives up at its first acquire instead
// of backing off six times against a decision that will not change.
func TestRefusalsOverTransports(t *testing.T) {
	overTransports(t, func(t *testing.T, open func(*Coordinator) farmEnd) {
		coord, err := NewCoordinator(Options{Version: "v-test"})
		if err != nil {
			t.Fatal(err)
		}
		far := open(coord)
		id, _, err := far.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		acquire := func(version string, protocol int, campaign string) (*Assignment, error) {
			resp, err := far.Acquire(AcquireRequest{Worker: "w", Version: version, Protocol: protocol, Campaign: campaign})
			if err != nil {
				return nil, err
			}
			return resp.Assignment, nil
		}
		a, err := acquire("v-test", ProtocolVersion, "")
		if err != nil {
			t.Fatal(err)
		}
		_, versionSkew := acquire("v-other", ProtocolVersion, "")
		_, protocolSkew := acquire("v-test", ProtocolVersion+1, "")
		_, unknown := acquire("v-test", ProtocolVersion, "no-such-campaign")
		_, noCheckpoint := far.DownloadCheckpoint(id, a.Point)

		for _, tc := range []struct {
			name string
			err  error
			want error // from the coordinator
			wire error // what the HTTP status carrying it decodes to
		}{
			{"version skew", versionSkew, ErrVersionSkew, ErrRejected},
			{"protocol skew", protocolSkew, ErrProtocolSkew, ErrRejected},
			{"unknown campaign", unknown, ErrUnknownCampaign, ErrUnknownCampaign},
			{"lost lease", far.Renew(id, "no-such-lease", RenewRequest{}), ErrLeaseLost, ErrLeaseLost},
			{"digest mismatch", far.Complete(id, a.Lease, CompleteRequest{Digest: "bad"}), ErrDigestMismatch, ErrRejected},
			{"bad checkpoint", far.UploadCheckpoint(id, a.Lease, []byte("not a checkpoint")), ErrBadCheckpoint, ErrBadCheckpoint},
			{"no checkpoint", noCheckpoint, ErrNoCheckpoint, ErrNoCheckpoint},
		} {
			switch {
			case tc.err == nil:
				t.Errorf("%s: accepted", tc.name)
			case retryable(tc.err):
				t.Errorf("%s: %v would be retried", tc.name, tc.err)
			case !errors.Is(tc.err, tc.want) && !errors.Is(tc.err, tc.wire):
				t.Errorf("%s: got %v, want %v (%v off the wire)", tc.name, tc.err, tc.want, tc.wire)
			case !strings.Contains(tc.err.Error(), tc.want.Error()):
				t.Errorf("%s: %q lost the coordinator's reason %q", tc.name, tc.err, tc.want)
			}
		}

		// This test binary's build version is not "v-test".
		counted := &countAcquires{Transport: far}
		err = RunWorker(context.Background(), WorkerOptions{Transport: counted, Output: io.Discard})
		if err == nil || retryable(err) || counted.n != 1 {
			t.Errorf("skewed worker: %d acquire(s), err %v; want one refused acquire", counted.n, err)
		}
	})
}

// poisoned hands the coordinator a result that cannot encode as JSON.
type poisoned struct{ farmEnd }

func (p poisoned) Complete(campaign, lease string, req CompleteRequest) error {
	req.Result.P99Latency = math.Inf(1)
	return p.farmEnd.Complete(campaign, lease, req)
}

// TestFarmUncommittableResultFails: a point whose result cannot be committed
// counts each refused commit as a failed attempt and ends failed, with the
// error in the manifest, once the retry budget is spent — it is not leased
// again forever.
func TestFarmUncommittableResultFails(t *testing.T) {
	overTransports(t, func(t *testing.T, open func(*Coordinator) farmEnd) {
		spec := testSpec()
		spec.Values = spec.Values[:1]
		spec.Retries = 2
		coord, err := NewCoordinator(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		far := poisoned{open(coord)}
		id, _, err := far.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- RunWorker(context.Background(), WorkerOptions{
				Transport: far, Name: "w", Poll: 10 * time.Millisecond, ExitWhenDone: true, Output: io.Discard,
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("worker still running: the point is being retried without end")
		}
		man, err := coord.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		rec := man.Points[0]
		if rec.Status != StatusFailed || rec.Attempts != spec.Retries || rec.Result != nil {
			t.Errorf("point ended %s after %d attempts (result %v), want failed after %d",
				rec.Status, rec.Attempts, rec.Result, spec.Retries)
		}
		if !strings.Contains(rec.Error, "commit failed") || !strings.Contains(rec.Error, "unsupported value") {
			t.Errorf("manifest error %q does not name the refused commit", rec.Error)
		}
	})
}
