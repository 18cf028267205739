package campaign

// The durable campaign journal. The coordinator journals every
// point-status transition to manifest.json in the campaign's directory,
// atomically (temp file + rename), so a crashed or killed campaign is
// resumed by the next coordinator on the same directory: completed points
// are final, and a point that left a mid-run checkpoint restarts from it
// instead of from cycle zero. The JSON layout is exactly the PR 5 sweep
// manifest (see TestManifestGolden); fields added since are omitempty so
// old journals load unchanged.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"wormnet/internal/stats"
)

// Status is the lifecycle of one point in the journal.
type Status string

// Point statuses. StatusRunning in a *loaded* manifest means the process
// (or the worker holding the lease) died mid-point; resume treats it like
// pending, restoring its checkpoint if one was flushed.
const (
	StatusPending     Status = "pending"
	StatusRunning     Status = "running"
	StatusCompleted   Status = "completed"
	StatusFailed      Status = "failed"
	StatusStalled     Status = "stalled"
	StatusInterrupted Status = "interrupted"
)

// Terminal reports whether a point in this status will never run again.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusFailed || s == StatusStalled
}

// PointRecord is one point's journal entry.
type PointRecord struct {
	Index    int    `json:"index"`
	Value    string `json:"value"`
	Status   Status `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Error    string `json:"error,omitempty"`
	// Checkpoint is the point's snapshot file (relative to the campaign
	// directory); present while a resumable mid-run state exists.
	Checkpoint string        `json:"checkpoint,omitempty"`
	Result     *stats.Result `json:"result,omitempty"`
	// Worker names the worker currently holding (or last to hold) the
	// point's lease.
	Worker string `json:"worker,omitempty"`
	// ResumedFrom is the cycle a migrated checkpoint restored the point at
	// on its final (completing) attempt; 0 when the point ran from scratch.
	ResumedFrom int64 `json:"resumed_from,omitempty"`
}

// Manifest is the journal's root document.
type Manifest struct {
	Tool    string         `json:"tool"`
	Vary    string         `json:"vary"`
	Seed    uint64         `json:"seed"`
	Limiter string         `json:"limiter"`
	Config  map[string]any `json:"config"`
	Points  []PointRecord  `json:"points"`
}

// ManifestName is the journal file inside a campaign directory.
const ManifestName = "manifest.json"

// NewManifest seeds a journal with every point pending.
func NewManifest(tool, vary string, seed uint64, limiter string, config map[string]any, values []string) *Manifest {
	m := &Manifest{Tool: tool, Vary: vary, Seed: seed, Limiter: limiter, Config: config}
	for i, v := range values {
		m.Points = append(m.Points, PointRecord{Index: i, Value: v, Status: StatusPending})
	}
	return m
}

// Save writes the journal atomically: a torn write can never destroy the
// previous good journal.
func (m *Manifest) Save(dir string) error {
	data, err := jsonMarshalIndent(m)
	if err != nil {
		return fmt.Errorf("campaign: marshal manifest: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, ManifestName), data)
}

// LoadManifest reads the journal from a campaign directory.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: parse %s: %w", ManifestName, err)
	}
	return &m, nil
}

// Done reports whether every point reached a terminal status.
func (m *Manifest) Done() bool {
	for i := range m.Points {
		if !m.Points[i].Status.Terminal() {
			return false
		}
	}
	return true
}

// StatusCounts tallies points by status (for progress views).
func (m *Manifest) StatusCounts() map[Status]int {
	counts := make(map[Status]int)
	for i := range m.Points {
		counts[m.Points[i].Status]++
	}
	return counts
}
