package campaign

// The worker is the execution half of a campaign: an acquire→run→commit
// loop around internal/supervisor, and the one place a sweep point is
// executed — by campaign-worker and sweep -connect over HTTP against
// campaignd, by a plain sweep against a coordinator in its own process.
// Each leased point is expanded locally from the spec the coordinator ships
// in the assignment, verified against the coordinator's config digest, run
// as expanded on a one-shard engine (parallelism is one loop per core), and
// — when the point carries a migrated checkpoint from a dead worker —
// restored bit-identically before the supervisor takes over. While a point runs, a
// heartbeat goroutine renews the lease and streams the live metrics
// snapshot; the supervisor's checkpoint hook uploads WNCP bytes to the
// coordinator so the point stays migratable right up to the cycle it dies
// on.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/metrics"
	"wormnet/internal/obs"
	"wormnet/internal/sim"
	"wormnet/internal/supervisor"
)

// ErrChaosKilled reports that the worker simulated a hard crash after
// KillAfterUploads checkpoint uploads: it abandoned its lease without
// failing it, exactly like a process that lost power. Chaos tests use it to
// force a checkpoint migration.
var ErrChaosKilled = errors.New("campaign: worker chaos-killed after checkpoint upload")

// ErrWorkerInterrupted reports that a subscribed signal stopped the worker
// mid-point; the final checkpoint was flushed to the coordinator first.
var ErrWorkerInterrupted = errors.New("campaign: worker interrupted by signal")

// errLeaseRevoked aborts the supervisor run from inside the checkpoint hook
// once the coordinator has stolen our lease: every further cycle would be
// wasted work that can never commit.
var errLeaseRevoked = errors.New("campaign: lease revoked, abandoning point")

// errChaosKill is the internal sentinel the checkpoint hook returns to crash
// the supervised run at the kill point.
var errChaosKill = errors.New("campaign: chaos kill")

// Transport is the coordinator as a worker sees it: the six calls of the
// lease protocol. A *Coordinator satisfies it by function call, a *Client
// over HTTP; the typed refusals (see refusals) read the same through both.
type Transport interface {
	Acquire(req AcquireRequest) (*AcquireResponse, error)
	Renew(campaign, lease string, req RenewRequest) error
	UploadCheckpoint(campaign, lease string, data []byte) error
	DownloadCheckpoint(campaign string, point int) ([]byte, error)
	Complete(campaign, lease string, req CompleteRequest) error
	Fail(campaign, lease string, req FailRequest) error
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// URL is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	URL string
	// Transport, if set, is used instead of an HTTP client for URL — hand
	// it the Coordinator itself to run both halves in one process.
	Transport Transport
	// Name identifies this worker in leases and manifests.
	Name string
	// Campaign restricts the worker to one campaign id ("" = any).
	Campaign string
	// Poll is the idle wait between acquire attempts when the coordinator
	// has nothing assignable (0 = 500ms).
	Poll time.Duration
	// ExitWhenDone returns nil once every known campaign is finished
	// instead of polling for new ones.
	ExitWhenDone bool
	// KillAfterUploads > 0 simulates a hard crash: after that many
	// checkpoint uploads the worker exits with ErrChaosKilled, leaving its
	// lease to expire so another worker steals and resumes the point.
	KillAfterUploads int
	// Signals interrupt the current point gracefully (flush a final
	// checkpoint to the coordinator, release the lease, exit with
	// ErrWorkerInterrupted). Empty = no signal handling.
	Signals []os.Signal
	// Monitor, if set, gets the running point's config digest surfaced on
	// /healthz while a point executes.
	Monitor *obs.Monitor
	// Output receives progress lines (nil = os.Stderr).
	Output io.Writer
}

// worker is the loop state behind RunWorker.
type worker struct {
	opts    WorkerOptions
	cl      Transport
	version string
	uploads int // checkpoint uploads so far (chaos accounting)
}

func (w *worker) logf(format string, args ...any) {
	out := w.opts.Output
	if out == nil {
		out = os.Stderr
	}
	fmt.Fprintf(out, "worker %s: "+format+"\n", append([]any{w.opts.Name}, args...)...)
}

// RunWorker runs the acquire→run→commit loop until the coordinator reports
// all work done (with ExitWhenDone), the context is cancelled, a subscribed
// signal interrupts a point, or the chaos kill fires. Transient coordinator
// errors are retried with capped backoff; refusals (version or digest skew)
// are fatal, because a skewed worker can only produce results the
// coordinator must reject.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	w := &worker{opts: opts, cl: opts.Transport, version: obs.BuildVersion()}
	if w.cl == nil {
		w.cl = NewClient(opts.URL)
	}

	retry := DefaultTransportRetry
	errStreak := 0
	for {
		if err := sleepCtx(ctx, 0); err != nil {
			return err
		}
		resp, err := w.cl.Acquire(AcquireRequest{
			Worker:   opts.Name,
			Version:  w.version,
			Protocol: ProtocolVersion,
			Campaign: opts.Campaign,
		})
		if err != nil {
			if !retryable(err) {
				return err
			}
			errStreak++
			if retry.Exhausted(errStreak) {
				return fmt.Errorf("campaign: coordinator unreachable after %d attempts: %w", errStreak, err)
			}
			w.logf("acquire failed (attempt %d): %v", errStreak, err)
			if err := sleepCtx(ctx, time.Duration(retry.Delay(errStreak-1))*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		errStreak = 0

		switch resp.Status {
		case AcquireDone:
			if opts.ExitWhenDone {
				w.logf("all campaigns done, exiting")
				return nil
			}
			if err := sleepCtx(ctx, opts.Poll); err != nil {
				return err
			}
		case AcquireWait:
			if err := sleepCtx(ctx, opts.Poll); err != nil {
				return err
			}
		case AcquireWork:
			if resp.Assignment == nil {
				return fmt.Errorf("campaign: coordinator sent work with no assignment")
			}
			if err := w.runAssignment(ctx, resp.Assignment); err != nil {
				return err
			}
		default:
			return fmt.Errorf("campaign: unknown acquire status %q", resp.Status)
		}
	}
}

// sleepCtx sleeps d (0 = just a cancellation check) or returns early with
// the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runAssignment executes one leased point end to end. It returns nil to keep
// the worker loop going (including after a non-fatal point failure, which is
// the coordinator's retry problem) and an error only for worker-fatal
// conditions: context cancellation, signal interrupt, chaos kill, or a
// digest disagreement that proves this build expands specs differently.
func (w *worker) runAssignment(ctx context.Context, a *Assignment) error {
	if a.Spec == nil {
		return fmt.Errorf("campaign: assignment %s has no spec", a.Lease)
	}
	points, err := a.Spec.Points()
	if err != nil {
		return fmt.Errorf("campaign: assignment %s: %w", a.Lease, err)
	}
	if a.Point < 0 || a.Point >= len(points) {
		return fmt.Errorf("campaign: assignment %s: point %d outside %d-point spec", a.Lease, a.Point, len(points))
	}
	pt := points[a.Point]
	if pt.Digest != a.Digest {
		// Our expansion of the very spec the coordinator sent disagrees with
		// the digest it committed to. This build cannot produce results the
		// coordinator may accept; failing the lease lets another worker try.
		werr := fmt.Errorf("%w: local digest %s, coordinator expects %s",
			ErrDigestMismatch, shortHash(pt.Digest), shortHash(a.Digest))
		w.cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "crashed", Error: werr.Error()}) //nolint:errcheck // already fatal
		return werr
	}

	if w.opts.Monitor != nil {
		digest := pt.Digest
		w.opts.Monitor.SetConfigDigest(func() string { return digest })
		defer w.opts.Monitor.SetConfigDigest(nil)
	}

	// Restore the migrated checkpoint when the coordinator holds one; fall
	// back to a fresh engine if the bytes are missing or unusable (the
	// coordinator validated them on upload, so this is belt and braces).
	var (
		eng         *sim.Engine
		resumedFrom int64
		restored    *sim.Snapshot
	)
	if a.HasCheckpoint {
		if data, err := w.cl.DownloadCheckpoint(a.Campaign, a.Point); err != nil {
			w.logf("point %d: checkpoint download failed, starting fresh: %v", a.Point, err)
		} else if snap, err := checkpoint.Decode(bytes.NewReader(data)); err != nil {
			w.logf("point %d: migrated checkpoint undecodable, starting fresh: %v", a.Point, err)
		} else if e, err := sim.RestoreEngine(pt.Config, snap); err != nil {
			w.logf("point %d: migrated checkpoint unusable, starting fresh: %v", a.Point, err)
		} else {
			eng, restored, resumedFrom = e, snap, snap.Now
			w.logf("point %d: resuming from migrated checkpoint at cycle %d", a.Point, snap.Now)
		}
	}
	if eng == nil {
		e, err := sim.New(pt.Config)
		if err != nil {
			w.cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "crashed", Error: err.Error()}) //nolint:errcheck // best effort
			return nil
		}
		eng = e
	}
	defer eng.Close()

	reg := metrics.NewRegistry()
	eng.EnableMetrics(reg, sim.DefaultMetricsSampleEvery)
	if restored != nil && len(restored.Metrics) > 0 {
		if err := reg.Restore(restored.Metrics); err != nil {
			w.logf("point %d: metrics restore: %v", a.Point, err)
		}
	}

	// Heartbeat: renew the lease at a third of its TTL, carrying the last
	// checkpointed cycle and a live metrics snapshot. A 410 means the lease
	// was stolen — flag it so the checkpoint hook aborts the run.
	var (
		lastCycle atomic.Int64
		leaseLost atomic.Bool
	)
	lastCycle.Store(eng.Now())
	hbCtx, stopHeartbeat := context.WithCancel(context.Background())
	defer stopHeartbeat()
	interval := time.Duration(a.TTLMS) * time.Millisecond / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				err := w.cl.Renew(a.Campaign, a.Lease, RenewRequest{
					Cycle:   lastCycle.Load(),
					Metrics: reg.Snapshot(),
				})
				if errors.Is(err, ErrLeaseLost) {
					leaseLost.Store(true)
					return
				}
			}
		}
	}()

	spec := a.Spec
	ending := false       // the supervisor left Running: the next flush is the final one
	var snap sim.Snapshot // every checkpoint's storage: they are serial, and encoded before the hook returns
	rep := supervisor.Run(eng, supervisor.Options{
		WallBudget:      time.Duration(spec.PointWallMS) * time.Millisecond,
		StallWindow:     spec.StallWindow,
		CheckpointEvery: spec.CheckpointEvery,
		Signals:         w.opts.Signals,
		OnState:         func(s supervisor.State) { ending = ending || s == supervisor.Draining },
		Checkpoint: func(e *sim.Engine) error {
			if leaseLost.Load() {
				return errLeaseRevoked
			}
			// A cancelled context aborts the run at its next periodic
			// checkpoint. The final flush of a run that is already ending
			// goes through: callers hand us a signal.NotifyContext next to
			// Signals, so the signal that interrupts the point has also
			// cancelled ctx, and refusing here would drop every cycle since
			// the last periodic checkpoint.
			if !ending && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := e.SnapshotInto(&snap); err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := checkpoint.Encode(&buf, &snap); err != nil {
				return err
			}
			if err := w.cl.UploadCheckpoint(a.Campaign, a.Lease, buf.Bytes()); err != nil {
				return err
			}
			lastCycle.Store(e.Now())
			w.uploads++
			if w.opts.KillAfterUploads > 0 && w.uploads >= w.opts.KillAfterUploads {
				return errChaosKill
			}
			return nil
		},
	})
	stopHeartbeat()

	switch rep.Outcome {
	case supervisor.Completed:
		state := eng.Collector().State()
		err := w.cl.Complete(a.Campaign, a.Lease, CompleteRequest{
			Digest:      pt.Digest,
			Result:      rep.Result,
			Stats:       &state,
			Metrics:     reg.Snapshot(),
			ResumedFrom: resumedFrom,
		})
		switch {
		case errors.Is(err, ErrLeaseLost):
			// The point was stolen and (by determinism) committed with the
			// identical result, or will be. Our copy is redundant, not wrong.
			w.logf("point %d: completed but lease lost — result committed elsewhere", a.Point)
		case err != nil:
			// A result the coordinator cannot take fails the attempt: within
			// the retry budget the point runs again, beyond it it ends failed
			// with the error in the manifest, instead of being leased forever.
			msg := "commit failed: " + err.Error()
			w.cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "failed", Error: msg}) //nolint:errcheck // coordinator expires the lease anyway
			w.logf("point %d: %s", a.Point, msg)
		default:
			w.logf("point %d (%s=%s): completed at cycle %d", a.Point, spec.Vary, pt.Raw, rep.EndCycle)
		}
		return nil

	case supervisor.Interrupted:
		// The supervisor flushed a final checkpoint through our hook, so the
		// coordinator can migrate the point from this very cycle. Release
		// the lease as interrupted (no retry charged) and exit.
		w.cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: "interrupted", Error: "worker interrupted"}) //nolint:errcheck // exiting anyway
		if rep.CheckpointErr != nil {
			w.logf("point %d: interrupted by %v at cycle %d, final checkpoint failed (%v): the point resumes from cycle %d",
				a.Point, rep.Signal, rep.EndCycle, rep.CheckpointErr, lastCycle.Load())
		} else {
			w.logf("point %d: interrupted by %v at cycle %d, checkpoint migrated", a.Point, rep.Signal, rep.EndCycle)
		}
		return fmt.Errorf("%w: %v", ErrWorkerInterrupted, rep.Signal)

	default:
		if errors.Is(rep.Err, errChaosKill) {
			// Simulated hard crash: say nothing to the coordinator. The lease
			// expires on its own and the point migrates via its checkpoint.
			w.logf("point %d: chaos kill after %d uploads at cycle %d", a.Point, w.uploads, rep.EndCycle)
			return ErrChaosKilled
		}
		if err := ctx.Err(); err != nil || errors.Is(rep.Err, context.Canceled) {
			if err == nil {
				err = context.Canceled
			}
			return err
		}
		if leaseLost.Load() || errors.Is(rep.Err, errLeaseRevoked) {
			w.logf("point %d: lease stolen at cycle %d, abandoning", a.Point, rep.EndCycle)
			return nil
		}
		msg := rep.Outcome.String()
		if rep.Err != nil {
			msg = rep.Err.Error()
		}
		w.cl.Fail(a.Campaign, a.Lease, FailRequest{Outcome: rep.Outcome.String(), Error: msg}) //nolint:errcheck // coordinator expires the lease anyway
		w.logf("point %d: %s at cycle %d: %s", a.Point, rep.Outcome, rep.EndCycle, msg)
		return nil
	}
}
