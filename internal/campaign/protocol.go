package campaign

// Wire types of the lease-based dispatch protocol between the coordinator
// and its workers. Everything is JSON over HTTP except checkpoint payloads,
// which travel as raw WNCP bytes (the checkpoint package's framed format —
// the coordinator stores and forwards them bit-exactly, so a migrated
// point resumes from the very bytes the dying worker flushed).

import (
	"wormnet/internal/metrics"
	"wormnet/internal/stats"
)

// ProtocolVersion guards the dispatch protocol itself; it travels in every
// acquire request next to the build version.
const ProtocolVersion = 1

// Acquire statuses.
const (
	// StatusWork: the response carries an assignment.
	AcquireWork = "work"
	// AcquireWait: no work right now (all points leased, or the
	// coordinator is draining); poll again with backoff.
	AcquireWait = "wait"
	// AcquireDone: every known campaign is terminal; a worker run with
	// exit-when-done stops cleanly.
	AcquireDone = "done"
)

// AcquireRequest asks the coordinator for a point lease.
type AcquireRequest struct {
	// Worker is the caller's stable name (shown in manifests and views).
	Worker string `json:"worker"`
	// Version is the worker's build version (obs.BuildVersion). The
	// coordinator rejects mismatches: mixed-version fleets cannot promise
	// bit-identical results.
	Version string `json:"version"`
	// Protocol is the worker's ProtocolVersion.
	Protocol int `json:"protocol"`
	// Campaign optionally pins the worker to one campaign.
	Campaign string `json:"campaign,omitempty"`
}

// Assignment is one granted lease.
type Assignment struct {
	Campaign string `json:"campaign"`
	Lease    string `json:"lease"`
	Point    int    `json:"point"`
	Value    string `json:"value"`
	// Attempt is the 1-based attempt number this grant represents.
	Attempt int `json:"attempt"`
	// TTLMS is the lease time-to-live in milliseconds; renew well within it.
	TTLMS int64 `json:"ttl_ms"`
	// Digest is the coordinator's sim.ConfigDigest for the point. The
	// worker recomputes it from Spec and must refuse the lease on mismatch;
	// Complete echoes it and the coordinator verifies once more.
	Digest string `json:"digest"`
	// HasCheckpoint reports that a migrated checkpoint is waiting: fetch
	// it and resume instead of starting from cycle zero.
	HasCheckpoint bool `json:"has_checkpoint"`
	// Spec is the campaign's full spec; the worker expands Point from it.
	Spec *Spec `json:"spec"`
}

// AcquireResponse is the coordinator's answer to an acquire.
type AcquireResponse struct {
	Status     string      `json:"status"` // work | wait | done
	Assignment *Assignment `json:"assignment,omitempty"`
}

// RenewRequest is a lease heartbeat with a live progress snapshot.
type RenewRequest struct {
	// Cycle is the engine's most recently checkpointed/observed cycle.
	Cycle int64 `json:"cycle"`
	// Metrics is the worker engine's current registry snapshot; the
	// coordinator folds it into the campaign's live metrics view.
	Metrics []metrics.Sample `json:"metrics,omitempty"`
}

// CompleteRequest commits a finished point.
type CompleteRequest struct {
	// Digest must equal the assignment's digest.
	Digest string       `json:"digest"`
	Result stats.Result `json:"result"`
	// Stats is the point's full collector state; the coordinator merges it
	// into the campaign-wide aggregate with stats.Collector.Merge.
	Stats *stats.CollectorState `json:"stats,omitempty"`
	// Metrics is the final engine registry snapshot, merged into the
	// campaign's metrics with metrics.Registry.Merge.
	Metrics []metrics.Sample `json:"metrics,omitempty"`
	// ResumedFrom is the cycle this attempt restored a migrated checkpoint
	// at (0 = ran from scratch).
	ResumedFrom int64 `json:"resumed_from,omitempty"`
}

// FailRequest reports a non-completed attempt. Outcome is the supervisor
// outcome string (stalled, deadline, crashed, interrupted).
type FailRequest struct {
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// StatusView is the live progress view of one campaign
// (GET /campaigns/{id}).
type StatusView struct {
	ID     string         `json:"id"`
	Done   bool           `json:"done"`
	Counts map[Status]int `json:"counts"`
	Points []PointRecord  `json:"points"`
	Leases []WorkerView   `json:"leases,omitempty"`
	// Progress is fractional campaign completion in [0,1]: terminal points
	// count 1 each, live leases count their last-renewed cycle fraction.
	Progress float64 `json:"progress"`
	// ElapsedMS is wall time since the campaign's first lease grant this
	// coordinator lifetime (0 before any grant).
	ElapsedMS int64 `json:"elapsed_ms"`
	// EtaMS extrapolates time to completion from the progress rate since
	// the first grant: elapsed * (1-progress)/progress. -1 when unknown
	// (no grant yet or no measurable progress), 0 once done.
	EtaMS int64 `json:"eta_ms"`
	// MergedResult aggregates the completed points' collectors
	// (stats.Collector.Merge): pooled latency statistics, summed counters,
	// per-run-averaged rates. Nil until a completed point shipped its
	// collector state this coordinator lifetime.
	MergedResult *stats.Result `json:"merged_result,omitempty"`
	// Metrics is the merged engine-metrics view: completed points'
	// registries plus the latest heartbeat snapshot of every live lease.
	Metrics map[string]any `json:"metrics,omitempty"`
}

// FarmView is the fleet-wide telemetry snapshot (GET /farm, streamed on
// GET /farm/events): every campaign's progress and every active worker.
type FarmView struct {
	Draining  bool               `json:"draining"`
	Campaigns []CampaignProgress `json:"campaigns"`
	Workers   []WorkerView       `json:"workers"`
	// Delivered/Admitted/Denied are fleet-wide message totals merged from
	// every campaign's engine metrics (completed points plus live leases).
	Delivered int64 `json:"delivered"`
	Admitted  int64 `json:"admitted"`
	Denied    int64 `json:"denied"`
}

// CampaignProgress is one campaign's row in the fleet view and in the
// campaign list (GET /campaigns).
type CampaignProgress struct {
	ID        string  `json:"id"`
	Vary      string  `json:"vary"`
	Points    int     `json:"points"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Running   int     `json:"running"`
	Progress  float64 `json:"progress"`
	ElapsedMS int64   `json:"elapsed_ms"`
	EtaMS     int64   `json:"eta_ms"` // -1 unknown, 0 done
	Done      bool    `json:"done"`
}

// WorkerView is one active lease, in the fleet view and in a campaign's
// status view: which worker holds which point of which campaign under which
// lease, and how far along it is.
type WorkerView struct {
	Worker   string `json:"worker"`
	Campaign string `json:"campaign"`
	Point    int    `json:"point"`
	Value    string `json:"value"`
	Lease    string `json:"lease"`
	Cycle    int64  `json:"cycle"`
	// Progress is the fraction of the point's total cycles the worker had
	// reached at its last renew, in [0,1]. 0 until the first heartbeat.
	Progress  float64 `json:"progress"`
	Attempt   int     `json:"attempt"`
	ExpiresMS int64   `json:"expires_ms"` // time until expiry (may be negative)
}
