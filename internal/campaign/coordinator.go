// Package campaign is the distributed sweep farm: a coordinator that
// expands experiment specs into sweep points, journals campaign state
// through the (PR 5) manifest, and dispatches points to worker processes
// over a lease-based pull protocol — acquire, renew, checkpoint, complete,
// fail — with work-stealing of expired leases and checkpoint *migration*: a
// worker that dies mid-point leaves its last flushed WNCP checkpoint with
// the coordinator, and the next worker resumes the point from it
// bit-identically.
//
// Exactly-once result commit: the coordinator is the single commit point.
// A point's result lands in the manifest only through Complete holding the
// point's *current* lease; a stale worker (its lease expired and the point
// was stolen) gets ErrLeaseLost and discards its result. The manifest is
// written atomically after every transition, so a coordinator crash never
// loses a committed result and never records one twice — on restart,
// running points without a surviving lease are simply re-leased (their
// checkpoints restore them mid-flight), and completed points are final.
//
// Determinism makes this safe at any interleaving: every attempt of a point
// computes the same result, so even the worst case — two workers racing the
// same point — cannot produce conflicting commits, only a rejected
// duplicate of an identical value.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"wormnet/internal/checkpoint"
	"wormnet/internal/metrics"
	"wormnet/internal/obs"
	"wormnet/internal/stats"
)

// Typed coordinator errors; the HTTP layer maps them to status codes.
var (
	// ErrLeaseLost marks an operation under a lease that expired and was
	// stolen, or never existed. The worker abandons the point.
	ErrLeaseLost = errors.New("campaign: lease lost or superseded")
	// ErrUnknownCampaign marks an id the coordinator has never seen.
	ErrUnknownCampaign = errors.New("campaign: unknown campaign")
	// ErrVersionSkew marks a worker whose build version differs from the
	// coordinator's — a mixed-version fleet cannot promise bit-identical
	// results, so it is rejected instead of silently tolerated.
	ErrVersionSkew = errors.New("campaign: worker build version mismatch")
	// ErrProtocolSkew marks a worker speaking a different protocol version.
	ErrProtocolSkew = errors.New("campaign: protocol version mismatch")
	// ErrDigestMismatch marks a commit whose config digest differs from
	// the coordinator's expansion of the same point.
	ErrDigestMismatch = errors.New("campaign: config digest mismatch")
	// ErrBadCheckpoint marks an uploaded checkpoint that does not decode.
	ErrBadCheckpoint = errors.New("campaign: uploaded checkpoint does not decode")
	// ErrNoCheckpoint marks a download for a point that holds no migrated
	// checkpoint (never flushed one, or its result superseded it).
	ErrNoCheckpoint = errors.New("campaign: no checkpoint for this point")
)

// DefaultLeaseTTL is the lease time-to-live when Options does not set one.
const DefaultLeaseTTL = 15 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Dir is the campaign journal root: each campaign journals its
	// manifest, spec and migrated checkpoints under Dir/<id>/. Empty keeps
	// everything in memory (tests, throwaway farms).
	Dir string
	// LeaseTTL is how long a granted lease lives without renewal before
	// its point becomes stealable. 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Version is the coordinator's build version; "" selects
	// obs.BuildVersion(). Workers reporting a different version are
	// rejected unless AllowVersionSkew.
	Version string
	// AllowVersionSkew admits workers of any build version (development
	// convenience; never use it when results must be bit-identical).
	AllowVersionSkew bool
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// lease is one granted point lease.
type lease struct {
	id      string
	point   int
	worker  string
	attempt int
	expires time.Time
	cycle   int64
	live    []metrics.Sample
}

// campaignState is one campaign's in-memory state.
type campaignState struct {
	id       string
	spec     *Spec
	points   []Point
	manifest *Manifest
	dir      string // "" when not journaled

	leases  map[int]*lease // active lease per point index
	byLease map[string]*lease

	ckpts      map[int][]byte // migrated checkpoint bytes per point
	ckptCycles map[int]int64

	merged     *stats.Collector  // merged completed-point collectors
	engMetrics *metrics.Registry // merged completed-point engine metrics
	seq        int

	// firstGrant anchors the ETA extrapolation: wall time of the first
	// lease grant this coordinator lifetime. Zero before any grant (and
	// after a restart, where the rate estimate simply restarts too).
	firstGrant time.Time
}

// pointFraction is the completion fraction of one point at a given engine
// cycle, clamped to [0,1].
func (st *campaignState) pointFraction(point int, cycle int64) float64 {
	total := st.points[point].Config.TotalCycles()
	if total <= 0 || cycle <= 0 {
		return 0
	}
	if cycle >= total {
		return 1
	}
	return float64(cycle) / float64(total)
}

// progressLocked computes a campaign's fractional completion (terminal
// points count 1, live leases their last-renewed cycle fraction), elapsed
// wall time since the first grant, and the rate-extrapolated ETA. Caller
// holds c.mu.
func (c *Coordinator) progressLocked(st *campaignState) (frac float64, elapsedMS, etaMS int64) {
	total := len(st.manifest.Points)
	if total == 0 {
		return 0, 0, -1
	}
	var done float64
	for i := range st.manifest.Points {
		if st.manifest.Points[i].Status.Terminal() {
			done++
		} else if l := st.leases[i]; l != nil {
			done += st.pointFraction(i, l.cycle)
		}
	}
	frac = done / float64(total)
	if st.firstGrant.IsZero() {
		return frac, 0, -1
	}
	elapsed := c.now().Sub(st.firstGrant)
	elapsedMS = elapsed.Milliseconds()
	switch {
	case st.manifest.Done():
		etaMS = 0
	case frac <= 0 || elapsedMS <= 0:
		etaMS = -1
	default:
		etaMS = int64(float64(elapsedMS) * (1 - frac) / frac)
	}
	return frac, elapsedMS, etaMS
}

// farm is the coordinator's own metrics (served on /metrics).
type farm struct {
	campaigns    *metrics.Counter
	completed    *metrics.Counter
	failed       *metrics.Counter
	granted      *metrics.Counter
	renewed      *metrics.Counter
	expired      *metrics.Counter
	stale        *metrics.Counter
	ckptStored   *metrics.Counter
	ckptBytes    *metrics.Counter
	resumeGrants *metrics.Counter
	verRejects   *metrics.Counter
	digRejects   *metrics.Counter
	leasesActive *metrics.Gauge
	pending      *metrics.Gauge
}

func newFarm(reg *metrics.Registry) farm {
	return farm{
		campaigns:    reg.NewCounter("farm_campaigns_total", "campaigns submitted"),
		completed:    reg.NewCounter("farm_points_completed_total", "points committed exactly once"),
		failed:       reg.NewCounter("farm_points_failed_total", "points terminally failed or stalled"),
		granted:      reg.NewCounter("farm_leases_granted_total", "leases granted (first attempts, retries and steals)"),
		renewed:      reg.NewCounter("farm_leases_renewed_total", "lease heartbeats accepted"),
		expired:      reg.NewCounter("farm_leases_expired_total", "leases revoked after TTL expiry (stolen points)"),
		stale:        reg.NewCounter("farm_stale_results_total", "commits and reports rejected for a lost lease"),
		ckptStored:   reg.NewCounter("farm_checkpoints_stored_total", "migrated checkpoints accepted"),
		ckptBytes:    reg.NewCounter("farm_checkpoint_bytes_total", "migrated checkpoint bytes accepted"),
		resumeGrants: reg.NewCounter("farm_checkpoint_resume_grants_total", "leases granted with a migrated checkpoint attached"),
		verRejects:   reg.NewCounter("farm_version_rejects_total", "workers rejected for build-version skew"),
		digRejects:   reg.NewCounter("farm_digest_rejects_total", "commits rejected for config-digest mismatch"),
		leasesActive: reg.NewGauge("farm_leases_active", "currently active leases"),
		pending:      reg.NewGauge("farm_points_pending", "points awaiting a worker"),
	}
}

// Coordinator owns the campaigns and the lease state machine. All methods
// are safe for concurrent use.
type Coordinator struct {
	opts    Options
	version string
	ttl     time.Duration
	now     func() time.Time

	reg *metrics.Registry
	m   farm

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string // submission order, for deterministic dispatch scans
	draining  bool
}

// NewCoordinator builds a coordinator, loading any campaigns already
// journaled under Options.Dir (a restarted coordinator resumes its farm:
// completed points stay final, running points without a surviving lease are
// re-leased, migrated checkpoints are reloaded from disk).
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.Version == "" {
		opts.Version = obs.BuildVersion()
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	reg := metrics.NewRegistry()
	c := &Coordinator{
		opts:      opts,
		version:   opts.Version,
		ttl:       opts.LeaseTTL,
		now:       opts.Clock,
		reg:       reg,
		m:         newFarm(reg),
		campaigns: make(map[string]*campaignState),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if err := c.loadCampaigns(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Registry returns the coordinator's farm metrics registry.
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

// Version returns the build version workers must match.
func (c *Coordinator) Version() string { return c.version }

// LeaseTTL returns the configured lease time-to-live.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// BeginDrain stops granting new leases; in-flight leases may still renew,
// checkpoint, complete and fail, so workers finish what they hold.
func (c *Coordinator) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// loadCampaigns restores journaled campaigns from the coordinator dir.
func (c *Coordinator) loadCampaigns() error {
	entries, err := os.ReadDir(c.opts.Dir)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(c.opts.Dir, ent.Name())
		specFile, err := os.Open(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue // not a campaign directory
		}
		spec, err := DecodeSpec(specFile)
		specFile.Close()
		if err != nil {
			return fmt.Errorf("campaign: load %s: %w", dir, err)
		}
		man, err := LoadManifest(dir)
		if err != nil {
			return fmt.Errorf("campaign: load %s: %w", dir, err)
		}
		st, err := c.newState(ent.Name(), spec, man, dir)
		if err != nil {
			return err
		}
		// Reload migrated checkpoints named in the journal.
		for i := range man.Points {
			rec := &man.Points[i]
			if rec.Checkpoint == "" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, rec.Checkpoint))
			if err != nil {
				rec.Checkpoint = "" // lost with the crash; point restarts clean
				continue
			}
			if snap, err := checkpoint.Decode(bytes.NewReader(data)); err == nil {
				st.ckpts[i] = data
				st.ckptCycles[i] = snap.Now
			} else {
				rec.Checkpoint = ""
			}
		}
		c.campaigns[st.id] = st
		c.order = append(c.order, st.id)
		c.m.campaigns.Inc()
	}
	sort.Strings(c.order) // ReadDir order is lexical already; make it explicit
	return nil
}

// newState expands a spec into a campaign state.
func (c *Coordinator) newState(id string, spec *Spec, man *Manifest, dir string) (*campaignState, error) {
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if len(man.Points) != len(points) {
		return nil, fmt.Errorf("campaign: %s: manifest has %d points, spec expands to %d",
			id, len(man.Points), len(points))
	}
	return &campaignState{
		id:         id,
		spec:       spec,
		points:     points,
		manifest:   man,
		dir:        dir,
		leases:     make(map[int]*lease),
		byLease:    make(map[string]*lease),
		ckpts:      make(map[int][]byte),
		ckptCycles: make(map[int]int64),
		engMetrics: metrics.NewRegistry(),
	}, nil
}

// journal persists the campaign's manifest when it has a directory.
func (st *campaignState) journal() error {
	if st.dir == "" {
		return nil
	}
	return st.manifest.Save(st.dir)
}

// Submit registers a campaign. Submission is idempotent: the id is derived
// from the spec's canonical JSON, so re-submitting the same experiment
// returns the existing campaign (created=false) instead of forking a
// duplicate.
func (c *Coordinator) Submit(spec *Spec) (id string, created bool, err error) {
	points, err := spec.Points()
	if err != nil {
		return "", false, err
	}
	base, err := spec.BaseConfig()
	if err != nil {
		return "", false, err
	}
	id = spec.ID()

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.campaigns[id]; ok {
		return id, false, nil
	}
	values := make([]string, len(points))
	for i, pt := range points {
		values[i] = pt.Raw
	}
	man := NewManifest("campaign", spec.Vary, spec.Seed, spec.Limiter, base.Manifest(), values)
	dir := ""
	if c.opts.Dir != "" {
		dir = filepath.Join(c.opts.Dir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", false, fmt.Errorf("campaign: %w", err)
		}
		if err := writeFileAtomic(filepath.Join(dir, "spec.json"), mustMarshalSpec(spec)); err != nil {
			return "", false, err
		}
	}
	st, err := c.newState(id, spec, man, dir)
	if err != nil {
		return "", false, err
	}
	if err := st.journal(); err != nil {
		return "", false, err
	}
	c.campaigns[id] = st
	c.order = append(c.order, id)
	c.m.campaigns.Inc()
	return id, true, nil
}

// checkWorker gates a worker on build and protocol version.
func (c *Coordinator) checkWorker(req AcquireRequest) error {
	if req.Protocol != ProtocolVersion {
		return fmt.Errorf("%w: worker speaks %d, coordinator %d",
			ErrProtocolSkew, req.Protocol, ProtocolVersion)
	}
	if !c.opts.AllowVersionSkew && req.Version != c.version {
		c.m.verRejects.Inc()
		return fmt.Errorf("%w: worker %q built %q, coordinator built %q",
			ErrVersionSkew, req.Worker, req.Version, c.version)
	}
	return nil
}

// expireLeases revokes every lease past its deadline; their points keep
// status running (with their migrated checkpoints) and become assignable —
// the next acquire steals them. Caller holds c.mu.
func (c *Coordinator) expireLeases(now time.Time) {
	for _, st := range c.campaigns {
		for point, l := range st.leases {
			if now.After(l.expires) {
				delete(st.leases, point)
				delete(st.byLease, l.id)
				c.m.expired.Inc()
			}
		}
	}
}

// Acquire grants the lowest assignable point: pending points first, then
// running points whose lease expired (work stealing). When a migrated
// checkpoint exists for the point, the assignment says so and the worker
// resumes from it.
func (c *Coordinator) Acquire(req AcquireRequest) (*AcquireResponse, error) {
	if err := c.checkWorker(req); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if req.Campaign != "" {
		if _, ok := c.campaigns[req.Campaign]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, req.Campaign)
		}
	}
	c.expireLeases(c.now())
	if !c.draining {
		ids := c.order
		if req.Campaign != "" {
			ids = []string{req.Campaign}
		}
		for _, id := range ids {
			st := c.campaigns[id]
			for i := range st.manifest.Points {
				rec := &st.manifest.Points[i]
				if rec.Status.Terminal() || st.leases[i] != nil {
					continue
				}
				return c.grantLocked(st, i, req.Worker)
			}
		}
	}
	if c.doneLocked(req.Campaign) {
		return &AcquireResponse{Status: AcquireDone}, nil
	}
	return &AcquireResponse{Status: AcquireWait}, nil
}

// grantLocked leases point i of st to worker. Caller holds c.mu.
func (c *Coordinator) grantLocked(st *campaignState, i int, worker string) (*AcquireResponse, error) {
	rec := &st.manifest.Points[i]
	st.seq++
	l := &lease{
		id:      fmt.Sprintf("%s-%03d-%d", st.id, i, st.seq),
		point:   i,
		worker:  worker,
		expires: c.now().Add(c.ttl),
		cycle:   st.ckptCycles[i],
	}
	rec.Status = StatusRunning
	rec.Attempts++
	rec.Worker = worker
	l.attempt = rec.Attempts
	if err := st.journal(); err != nil {
		rec.Attempts--
		return nil, err
	}
	st.leases[i] = l
	st.byLease[l.id] = l
	if st.firstGrant.IsZero() {
		st.firstGrant = c.now()
	}
	c.m.granted.Inc()
	hasCkpt := st.ckpts[i] != nil
	if hasCkpt {
		c.m.resumeGrants.Inc()
	}
	return &AcquireResponse{
		Status: AcquireWork,
		Assignment: &Assignment{
			Campaign:      st.id,
			Lease:         l.id,
			Point:         i,
			Value:         rec.Value,
			Attempt:       l.attempt,
			TTLMS:         c.ttl.Milliseconds(),
			Digest:        st.points[i].Digest,
			HasCheckpoint: hasCkpt,
			Spec:          st.spec,
		},
	}, nil
}

// doneLocked reports whether every campaign (or the named one) is terminal.
// Caller holds c.mu.
func (c *Coordinator) doneLocked(campaignID string) bool {
	if campaignID != "" {
		return c.campaigns[campaignID].manifest.Done()
	}
	if len(c.campaigns) == 0 {
		return false
	}
	for _, st := range c.campaigns {
		if !st.manifest.Done() {
			return false
		}
	}
	return true
}

// leaseFor resolves a live lease or fails with ErrLeaseLost. A lease stays
// valid past its deadline until the point is actually stolen — a slow but
// alive worker keeps its claim. Caller holds c.mu.
func (c *Coordinator) leaseFor(campaignID, leaseID string) (*campaignState, *lease, error) {
	st, ok := c.campaigns[campaignID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaignID)
	}
	l, ok := st.byLease[leaseID]
	if !ok {
		c.m.stale.Inc()
		return nil, nil, fmt.Errorf("%w: %s", ErrLeaseLost, leaseID)
	}
	return st, l, nil
}

// Renew extends a lease and records the worker's live progress snapshot.
func (c *Coordinator) Renew(campaignID, leaseID string, req RenewRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, l, err := c.leaseFor(campaignID, leaseID)
	if err != nil {
		return err
	}
	l.expires = c.now().Add(c.ttl)
	if req.Cycle > l.cycle {
		l.cycle = req.Cycle
	}
	if req.Metrics != nil {
		l.live = req.Metrics
	}
	c.m.renewed.Inc()
	return nil
}

// UploadCheckpoint accepts a worker's WNCP checkpoint for its leased point
// and keeps it for migration. The bytes are validated through the real
// decoder before acceptance — a corrupt upload is rejected, preserving the
// previous good checkpoint. Storing also renews the lease (an upload is the
// strongest possible heartbeat).
func (c *Coordinator) UploadCheckpoint(campaignID, leaseID string, data []byte) error {
	snap, err := checkpoint.Decode(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, l, err := c.leaseFor(campaignID, leaseID)
	if err != nil {
		return err
	}
	rec := &st.manifest.Points[l.point]
	if st.dir != "" {
		name := fmt.Sprintf("point-%03d.wncp", l.point)
		if err := writeFileAtomic(filepath.Join(st.dir, name), data); err != nil {
			return err
		}
		if rec.Checkpoint != name {
			rec.Checkpoint = name
			if err := st.journal(); err != nil {
				return err
			}
		}
	}
	st.ckpts[l.point] = data
	st.ckptCycles[l.point] = snap.Now
	l.expires = c.now().Add(c.ttl)
	if snap.Now > l.cycle {
		l.cycle = snap.Now
	}
	c.m.ckptStored.Inc()
	c.m.ckptBytes.Add(int64(len(data)))
	return nil
}

// DownloadCheckpoint returns the migrated checkpoint bytes for a point, or
// ErrNoCheckpoint.
func (c *Coordinator) DownloadCheckpoint(campaignID string, point int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.campaigns[campaignID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaignID)
	}
	data, ok := st.ckpts[point]
	if !ok {
		return nil, fmt.Errorf("%w: point %d of %s", ErrNoCheckpoint, point, campaignID)
	}
	return data, nil
}

// Complete commits a finished point, exactly once: the caller must hold the
// point's current lease and echo the coordinator's config digest. The
// result, collector state and engine metrics are merged into the campaign;
// the point's migrated checkpoint is discarded (the result supersedes it).
func (c *Coordinator) Complete(campaignID, leaseID string, req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, l, err := c.leaseFor(campaignID, leaseID)
	if err != nil {
		return err
	}
	if req.Digest != st.points[l.point].Digest {
		c.m.digRejects.Inc()
		return fmt.Errorf("%w: point %d: worker computed %q, coordinator %q",
			ErrDigestMismatch, l.point, req.Digest, st.points[l.point].Digest)
	}
	// The manifest and the status view are JSON: a result they cannot carry
	// is refused before anything changes.
	if _, err := json.Marshal(req.Result); err != nil {
		return fmt.Errorf("campaign: point %d: result does not encode: %w", l.point, err)
	}
	rec := &st.manifest.Points[l.point]
	result := req.Result
	rec.Status = StatusCompleted
	rec.Outcome = "completed"
	rec.Error = ""
	rec.Result = &result
	rec.Worker = l.worker
	rec.ResumedFrom = req.ResumedFrom
	if rec.Checkpoint != "" && st.dir != "" {
		os.Remove(filepath.Join(st.dir, rec.Checkpoint)) //nolint:errcheck // the result supersedes it
	}
	rec.Checkpoint = ""
	if err := st.journal(); err != nil {
		rec.Status = StatusRunning
		rec.Result = nil
		return err
	}
	delete(st.leases, l.point)
	delete(st.byLease, l.id)
	delete(st.ckpts, l.point)
	delete(st.ckptCycles, l.point)
	c.m.completed.Inc()

	if req.Stats != nil {
		col := stats.NewCollector(req.Stats.Nodes, req.Stats.WinStart, req.Stats.WinEnd)
		if err := col.Restore(*req.Stats); err == nil {
			if st.merged == nil {
				st.merged = col
			} else if sameGeometry(st.merged, col) {
				st.merged.Merge(col)
			}
		}
	}
	if req.Metrics != nil {
		tmp := metrics.NewRegistry()
		if err := tmp.Restore(req.Metrics); err == nil {
			st.engMetrics.Merge(tmp)
		}
	}
	return nil
}

// sameGeometry reports whether two collectors can merge.
func sameGeometry(a, b *stats.Collector) bool {
	as, ae := a.Window()
	bs, be := b.Window()
	return as == bs && ae == be
}

// Fail reports a non-completed attempt. An interrupted worker (graceful
// drain) returns the point without consuming an attempt; a crash, stall or
// budget failure counts against the spec's retry budget — within it the
// point returns to pending (its checkpoint intact, so the retry resumes
// mid-flight), beyond it the point goes terminal.
func (c *Coordinator) Fail(campaignID, leaseID string, req FailRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, l, err := c.leaseFor(campaignID, leaseID)
	if err != nil {
		return err
	}
	rec := &st.manifest.Points[l.point]
	rec.Outcome = req.Outcome
	rec.Error = req.Error
	switch {
	case req.Outcome == "interrupted":
		rec.Status = StatusPending
		rec.Attempts-- // voluntary preemption is not a failed attempt
	case rec.Attempts >= maxAttempts(st.spec.Retries):
		if req.Outcome == "stalled" {
			rec.Status = StatusStalled
		} else {
			rec.Status = StatusFailed
		}
		c.m.failed.Inc()
	default:
		rec.Status = StatusPending
	}
	if err := st.journal(); err != nil {
		return err
	}
	delete(st.leases, l.point)
	delete(st.byLease, l.id)
	return nil
}

// maxAttempts is the attempt budget of one point: point_retries = r allows
// max(1, r) attempts in total (the meaning fault.RetryPolicy gives
// MaxRetries), after which a failed point goes terminal.
func maxAttempts(retries int) int {
	if retries < 1 {
		return 1
	}
	return retries
}

// List returns every campaign's progress row in submission order: the
// Campaigns of Farm.
func (c *Coordinator) List() []CampaignProgress {
	return c.Farm().Campaigns
}

// Status builds the live progress view of one campaign: the journal, the
// active leases, the merged collector result and the merged engine-metrics
// view (completed points plus the latest heartbeat snapshot of every live
// lease).
func (c *Coordinator) Status(campaignID string) (*StatusView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.campaigns[campaignID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaignID)
	}
	c.expireLeases(c.now())
	view := &StatusView{
		ID:     st.id,
		Done:   st.manifest.Done(),
		Counts: st.manifest.StatusCounts(),
		Points: append([]PointRecord(nil), st.manifest.Points...),
	}
	now := c.now()
	for _, l := range st.leases {
		view.Leases = append(view.Leases, st.workerRow(l, now))
	}
	sort.Slice(view.Leases, func(i, j int) bool { return view.Leases[i].Point < view.Leases[j].Point })
	view.Progress, view.ElapsedMS, view.EtaMS = c.progressLocked(st)
	if st.merged != nil {
		r := st.merged.Result()
		view.MergedResult = &r
	}
	live := metrics.NewRegistry()
	live.Merge(st.engMetrics)
	for _, l := range st.leases {
		if l.live == nil {
			continue
		}
		tmp := metrics.NewRegistry()
		if err := tmp.Restore(l.live); err == nil {
			live.Merge(tmp)
		}
	}
	if names := live.Names(); len(names) > 0 {
		view.Metrics = obs.MetricsMap(live)
	}
	return view, nil
}

// Farm builds the fleet-wide telemetry snapshot: one progress row per
// campaign, one row per active worker lease, and merged message totals.
// It is cheap enough to stream every second — it touches only lease state
// and counter samples, never the full merged registries.
func (c *Coordinator) Farm() *FarmView {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases(c.now())
	view := &FarmView{
		Draining:  c.draining,
		Campaigns: make([]CampaignProgress, 0, len(c.order)),
	}
	now := c.now()
	for _, id := range c.order {
		st := c.campaigns[id]
		counts := st.manifest.StatusCounts()
		row := CampaignProgress{
			ID:        id,
			Vary:      st.spec.Vary,
			Points:    len(st.manifest.Points),
			Completed: counts[StatusCompleted],
			Failed:    counts[StatusFailed],
			Running:   len(st.leases),
			Done:      st.manifest.Done(),
		}
		row.Progress, row.ElapsedMS, row.EtaMS = c.progressLocked(st)
		view.Campaigns = append(view.Campaigns, row)

		for _, l := range st.leases {
			view.Workers = append(view.Workers, st.workerRow(l, now))
		}
		view.Delivered += counterTotal(st, "sim_messages_delivered_total")
		view.Admitted += counterTotal(st, "sim_injection_admitted_total")
		view.Denied += counterTotal(st, "sim_injection_denied_total")
	}
	sort.Slice(view.Workers, func(i, j int) bool {
		a, b := &view.Workers[i], &view.Workers[j]
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		return a.Point < b.Point
	})
	return view
}

// workerRow is one active lease as both views show it: which worker holds
// which point of the campaign, and how far along it is at now.
func (st *campaignState) workerRow(l *lease, now time.Time) WorkerView {
	return WorkerView{
		Worker:    l.worker,
		Campaign:  st.id,
		Point:     l.point,
		Value:     st.points[l.point].Raw,
		Lease:     l.id,
		Cycle:     l.cycle,
		Progress:  st.pointFraction(l.point, l.cycle),
		Attempt:   l.attempt,
		ExpiresMS: l.expires.Sub(now).Milliseconds(),
	}
}

// counterTotal sums one counter across a campaign's merged completed-point
// metrics and the latest heartbeat snapshot of every live lease.
func counterTotal(st *campaignState, name string) int64 {
	var total int64
	for _, s := range st.engMetrics.Snapshot() {
		if s.Name == name && s.Kind == metrics.KindCounter {
			total += int64(s.Value)
		}
	}
	for _, l := range st.leases {
		for _, s := range l.live {
			if s.Name == name && s.Kind == metrics.KindCounter {
				total += int64(s.Value)
			}
		}
	}
	return total
}

// Manifest returns a copy of a campaign's journal (tests, CLI rendering).
func (c *Coordinator) Manifest(campaignID string) (*Manifest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.campaigns[campaignID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, campaignID)
	}
	cp := *st.manifest
	cp.Points = append([]PointRecord(nil), st.manifest.Points...)
	return &cp, nil
}

// Done reports whether every known campaign is terminal (false with none).
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doneLocked("")
}

// UpdateGauges refreshes the farm gauges from current state; the metrics
// handler calls it before each exposition.
func (c *Coordinator) UpdateGauges() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeases(c.now())
	active, pending := 0, 0
	for _, st := range c.campaigns {
		active += len(st.leases)
		for i := range st.manifest.Points {
			rec := &st.manifest.Points[i]
			if !rec.Status.Terminal() && st.leases[i] == nil {
				pending++
			}
		}
	}
	c.m.leasesActive.SetInt(int64(active))
	c.m.pending.SetInt(int64(pending))
}

// mustMarshalSpec renders a spec for the on-disk journal.
func mustMarshalSpec(spec *Spec) []byte {
	data, err := jsonMarshalIndent(spec)
	if err != nil {
		panic(fmt.Sprintf("campaign: marshal spec: %v", err))
	}
	return data
}
