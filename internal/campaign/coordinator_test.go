package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/sim"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestCoordinator(t *testing.T, dir string) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c, err := NewCoordinator(Options{
		Dir:      dir,
		LeaseTTL: time.Second,
		Version:  "test-build",
		Clock:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func acquireReq(worker string) AcquireRequest {
	return AcquireRequest{Worker: worker, Version: "test-build", Protocol: ProtocolVersion}
}

// snapshotBytes runs the point's engine to cycle `at` and encodes a real
// WNCP checkpoint for it.
func snapshotBytes(t *testing.T, spec *Spec, point int, at int64) []byte {
	t.Helper()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(points[point].Config)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for e.Now() < at {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSubmitIdempotent(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestCoordinator(t, dir)
	spec := testSpec()
	id, created, err := c.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: id=%s created=%v err=%v", id, created, err)
	}
	id2, created2, err := c.Submit(spec)
	if err != nil || created2 || id2 != id {
		t.Fatalf("resubmit: id=%s created=%v err=%v", id2, created2, err)
	}
	for _, name := range []string{"spec.json", ManifestName} {
		if _, err := os.Stat(filepath.Join(dir, id, name)); err != nil {
			t.Errorf("journal file %s missing: %v", name, err)
		}
	}
}

func TestAcquireVersionGate(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	if _, _, err := c.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	req := acquireReq("w1")
	req.Version = "other-build"
	if _, err := c.Acquire(req); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version skew admitted: %v", err)
	}
	req = acquireReq("w1")
	req.Protocol = ProtocolVersion + 1
	if _, err := c.Acquire(req); !errors.Is(err, ErrProtocolSkew) {
		t.Fatalf("protocol skew admitted: %v", err)
	}

	skewed, err := NewCoordinator(Options{Version: "test-build", AllowVersionSkew: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := skewed.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	req = acquireReq("w1")
	req.Version = "other-build"
	if _, err := skewed.Acquire(req); err != nil {
		t.Fatalf("AllowVersionSkew still rejected: %v", err)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	c, clk := newTestCoordinator(t, "")
	spec := testSpec()
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	points, _ := spec.Points()

	resp, err := c.Acquire(acquireReq("w1"))
	if err != nil || resp.Status != AcquireWork {
		t.Fatalf("acquire: %+v err=%v", resp, err)
	}
	a := resp.Assignment
	if a.Point != 0 || a.Attempt != 1 || a.HasCheckpoint || a.Digest != points[0].Digest {
		t.Fatalf("bad assignment: %+v", a)
	}

	// Renewal keeps the lease alive past its original TTL.
	clk.advance(700 * time.Millisecond)
	if err := c.Renew(id, a.Lease, RenewRequest{Cycle: 50}); err != nil {
		t.Fatal(err)
	}
	clk.advance(700 * time.Millisecond)
	resp2, err := c.Acquire(acquireReq("w2"))
	if err != nil || resp2.Status != AcquireWork || resp2.Assignment.Point != 1 {
		t.Fatalf("second worker should get point 1: %+v err=%v", resp2, err)
	}

	// Both points leased: a third acquire waits.
	resp3, err := c.Acquire(acquireReq("w3"))
	if err != nil || resp3.Status != AcquireWait {
		t.Fatalf("want wait, got %+v err=%v", resp3, err)
	}

	// Commit point 0 exactly once.
	if err := c.Complete(id, a.Lease, CompleteRequest{Digest: a.Digest}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(id, a.Lease, CompleteRequest{Digest: a.Digest}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("double commit admitted: %v", err)
	}
	man, err := c.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if man.Points[0].Status != StatusCompleted || man.Points[0].Worker != "w1" {
		t.Fatalf("point 0 not committed: %+v", man.Points[0])
	}
}

func TestCompleteDigestGate(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	id, _, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Acquire(acquireReq("w1"))
	if err != nil {
		t.Fatal(err)
	}
	err = c.Complete(id, resp.Assignment.Lease, CompleteRequest{Digest: "rate=999"})
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("bad digest admitted: %v", err)
	}
	// The lease survives a rejected commit; the correct digest still lands.
	if err := c.Complete(id, resp.Assignment.Lease, CompleteRequest{Digest: resp.Assignment.Digest}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkStealingWithCheckpointMigration is the coordinator half of the
// migration story: worker A leases point 0, uploads a checkpoint, goes
// silent; after the TTL worker B steals the point, the assignment carries
// the checkpoint flag, and the downloaded bytes are bit-identical to the
// upload. A's late commit is rejected.
func TestWorkStealingWithCheckpointMigration(t *testing.T) {
	c, clk := newTestCoordinator(t, t.TempDir())
	spec := testSpec()
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	respA, err := c.Acquire(acquireReq("workerA"))
	if err != nil {
		t.Fatal(err)
	}
	a := respA.Assignment

	ckpt := snapshotBytes(t, spec, 0, 200)
	if err := c.UploadCheckpoint(id, a.Lease, ckpt); err != nil {
		t.Fatal(err)
	}
	// Corrupt uploads are rejected and do not clobber the good checkpoint.
	bad := append([]byte(nil), ckpt...)
	bad[len(bad)-1] ^= 0xFF
	if err := c.UploadCheckpoint(id, a.Lease, bad); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("corrupt checkpoint accepted: %v", err)
	}

	// Worker A goes silent; the lease expires; worker B steals the point.
	clk.advance(2 * time.Second)
	respB, err := c.Acquire(acquireReq("workerB"))
	if err != nil || respB.Status != AcquireWork {
		t.Fatalf("steal failed: %+v err=%v", respB, err)
	}
	b := respB.Assignment
	if b.Point != 0 || b.Attempt != 2 || !b.HasCheckpoint {
		t.Fatalf("stolen assignment wrong: %+v", b)
	}
	got, err := c.DownloadCheckpoint(id, 0)
	if err != nil || !bytes.Equal(got, ckpt) {
		t.Fatalf("migrated checkpoint not bit-identical (err=%v)", err)
	}

	// A wakes up and tries to act on its dead lease.
	if err := c.Renew(id, a.Lease, RenewRequest{}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead lease renewed: %v", err)
	}
	if err := c.Complete(id, a.Lease, CompleteRequest{Digest: a.Digest}); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("dead lease committed: %v", err)
	}
	// B commits, recording the resume cycle.
	if err := c.Complete(id, b.Lease, CompleteRequest{Digest: b.Digest, ResumedFrom: 200}); err != nil {
		t.Fatal(err)
	}
	man, _ := c.Manifest(id)
	if man.Points[0].Worker != "workerB" || man.Points[0].ResumedFrom != 200 {
		t.Fatalf("migration not recorded: %+v", man.Points[0])
	}
	if man.Points[0].Checkpoint != "" {
		t.Fatalf("checkpoint reference not cleared: %+v", man.Points[0])
	}
}

func TestFailRetryAccounting(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	spec := testSpec()
	spec.Retries = 2 // two attempts total
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: returns to pending without consuming an attempt.
	resp, _ := c.Acquire(acquireReq("w1"))
	if err := c.Fail(id, resp.Assignment.Lease, FailRequest{Outcome: "interrupted"}); err != nil {
		t.Fatal(err)
	}
	man, _ := c.Manifest(id)
	if man.Points[0].Status != StatusPending || man.Points[0].Attempts != 0 {
		t.Fatalf("interrupt consumed an attempt: %+v", man.Points[0])
	}

	// Crash 1/2: back to pending.
	resp, _ = c.Acquire(acquireReq("w1"))
	if err := c.Fail(id, resp.Assignment.Lease, FailRequest{Outcome: "crashed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	man, _ = c.Manifest(id)
	if man.Points[0].Status != StatusPending || man.Points[0].Attempts != 1 {
		t.Fatalf("first crash mishandled: %+v", man.Points[0])
	}

	// Crash 2/2: terminal failed.
	resp, _ = c.Acquire(acquireReq("w2"))
	if resp.Assignment.Point != 0 || resp.Assignment.Attempt != 2 {
		t.Fatalf("retry grant wrong: %+v", resp.Assignment)
	}
	if err := c.Fail(id, resp.Assignment.Lease, FailRequest{Outcome: "crashed", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	man, _ = c.Manifest(id)
	if man.Points[0].Status != StatusFailed {
		t.Fatalf("exhausted point not failed: %+v", man.Points[0])
	}

	// A stall on the second point exhausts the budget too, as stalled.
	for i := 0; i < 2; i++ {
		resp, err = c.Acquire(acquireReq("w3"))
		if err != nil || resp.Status != AcquireWork {
			t.Fatalf("acquire %d: %+v err=%v", i, resp, err)
		}
		if err := c.Fail(id, resp.Assignment.Lease, FailRequest{Outcome: "stalled"}); err != nil {
			t.Fatal(err)
		}
	}
	man, _ = c.Manifest(id)
	if man.Points[1].Status != StatusStalled {
		t.Fatalf("stalled point not terminal: %+v", man.Points[1])
	}
	if !c.Done() {
		t.Fatal("all points terminal but coordinator not done")
	}
	resp, err = c.Acquire(acquireReq("w4"))
	if err != nil || resp.Status != AcquireDone {
		t.Fatalf("want done, got %+v err=%v", resp, err)
	}
}

// TestCoordinatorRestart proves the journal is the durable truth: a new
// coordinator over the same directory restores completed points as final,
// reloads migrated checkpoints, and re-leases unfinished work. A journaled
// checkpoint it cannot decode — a frame of a retired format version — is
// dropped, and its point restarts clean.
func TestCoordinatorRestart(t *testing.T) {
	for _, retired := range []bool{false, true} {
		name := "checkpoint"
		if retired {
			name = "retired-version-checkpoint"
		}
		t.Run(name, func(t *testing.T) { testCoordinatorRestart(t, retired) })
	}
}

func testCoordinatorRestart(t *testing.T, retired bool) {
	dir := t.TempDir()
	c1, _ := newTestCoordinator(t, dir)
	spec := testSpec()
	id, _, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Complete point 0; checkpoint point 1 mid-flight.
	r0, _ := c1.Acquire(acquireReq("w1"))
	if err := c1.Complete(id, r0.Assignment.Lease, CompleteRequest{Digest: r0.Assignment.Digest}); err != nil {
		t.Fatal(err)
	}
	r1, _ := c1.Acquire(acquireReq("w1"))
	ckpt := snapshotBytes(t, spec, 1, 150)
	if err := c1.UploadCheckpoint(id, r1.Assignment.Lease, ckpt); err != nil {
		t.Fatal(err)
	}
	if retired {
		// Header bytes 4-7 are the format version; the CRC covers the payload
		// alone, so the frame stays intact but for its version.
		man, err := c1.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, id, man.Points[1].Checkpoint)
		old := bytes.Clone(ckpt)
		old[4], old[5], old[6], old[7] = 2, 0, 0, 0
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash" the coordinator; a new one loads the same directory.
	c2, _ := newTestCoordinator(t, dir)
	man, err := c2.Manifest(id)
	if err != nil {
		t.Fatal(err)
	}
	if man.Points[0].Status != StatusCompleted {
		t.Fatalf("completed point lost: %+v", man.Points[0])
	}
	resp, err := c2.Acquire(acquireReq("w2"))
	if err != nil || resp.Status != AcquireWork || resp.Assignment.Point != 1 {
		t.Fatalf("restart did not re-lease point 1: %+v err=%v", resp, err)
	}
	if retired {
		if resp.Assignment.HasCheckpoint || man.Points[1].Checkpoint != "" {
			t.Fatalf("restart kept a checkpoint of a retired version: %+v, manifest names %q", resp.Assignment, man.Points[1].Checkpoint)
		}
	} else {
		if !resp.Assignment.HasCheckpoint {
			t.Fatalf("restart lost the migrated checkpoint: %+v", resp.Assignment)
		}
		got, err := c2.DownloadCheckpoint(id, 1)
		if err != nil || !bytes.Equal(got, ckpt) {
			t.Fatal("reloaded checkpoint not bit-identical")
		}
	}
	// Submitting the same spec after restart resumes, not forks.
	id2, created, err := c2.Submit(spec)
	if err != nil || created || id2 != id {
		t.Fatalf("restart submit forked: id=%s created=%v err=%v", id2, created, err)
	}
}

func TestDrainStopsGrants(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	id, _, err := c.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := c.Acquire(acquireReq("w1"))
	c.BeginDrain()
	r2, err := c.Acquire(acquireReq("w2"))
	if err != nil || r2.Status != AcquireWait {
		t.Fatalf("draining coordinator granted work: %+v err=%v", r2, err)
	}
	// The in-flight lease still renews and completes.
	if err := c.Renew(id, resp.Assignment.Lease, RenewRequest{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(id, resp.Assignment.Lease, CompleteRequest{Digest: resp.Assignment.Digest}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusView(t *testing.T) {
	c, _ := newTestCoordinator(t, "")
	spec := testSpec()
	id, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := c.Acquire(acquireReq("w1"))
	if err := c.Renew(id, resp.Assignment.Lease, RenewRequest{Cycle: 123}); err != nil {
		t.Fatal(err)
	}
	view, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Done || view.Counts[StatusRunning] != 1 || view.Counts[StatusPending] != 1 {
		t.Fatalf("bad view: %+v", view)
	}
	// The status view's lease rows and the list are the fleet view's rows.
	farm := c.Farm()
	if len(view.Leases) != 1 || view.Leases[0] != farm.Workers[0] {
		t.Fatalf("lease rows %+v, fleet rows %+v", view.Leases, farm.Workers)
	}
	if l := view.Leases[0]; l.Worker != "w1" || l.Cycle != 123 || l.Lease != resp.Assignment.Lease || l.Campaign != id {
		t.Fatalf("bad lease row: %+v", l)
	}
	if _, err := c.Status("nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign: %v", err)
	}
	list := c.List()
	if len(list) != 1 || list[0] != farm.Campaigns[0] || list[0].ID != id || list[0].Points != 2 || list[0].Running != 1 {
		t.Fatalf("bad list: %+v", list)
	}
}
