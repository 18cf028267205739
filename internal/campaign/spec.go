package campaign

// The campaign spec is the wire description of an experiment: a base engine
// configuration, one swept parameter and its values, plus robustness knobs
// (checkpoint cadence, budgets, retries). It is what a client POSTs to the
// coordinator and what cmd/sweep builds from its flags, so the local and
// distributed modes expand to exactly the same sweep points.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"wormnet/internal/baseline"
	"wormnet/internal/fault"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// maxSpecBytes bounds the JSON a spec decoder will read.
const maxSpecBytes = 1 << 20

// maxSpecPoints bounds the sweep-point fan-out of one campaign.
const maxSpecPoints = 100_000

// Upper sanity bounds on decoded specs. The sim layer enforces minimums;
// the spec layer enforces maximums, so a hostile or fuzzed spec cannot make
// the coordinator (whose validation walks the topology) or a worker
// allocate an absurd engine.
const (
	maxRadix    = 64
	maxDims     = 6
	maxNodes    = 1 << 20
	maxVCs      = 64
	maxBufDepth = 4096
	maxMsgLen   = 1 << 16
)

// boundConfig rejects configurations beyond the supported maximums. Called
// per expanded point, after the swept value is applied and before anything
// walks the topology.
func boundConfig(cfg *sim.Config) error {
	switch {
	case cfg.K > maxRadix || cfg.N > maxDims:
		return fmt.Errorf("campaign: topology %d-ary %d-cube beyond supported %d-ary %d-cube",
			cfg.K, cfg.N, maxRadix, maxDims)
	case cfg.VCs > maxVCs:
		return fmt.Errorf("campaign: %d virtual channels beyond limit %d", cfg.VCs, maxVCs)
	case cfg.BufDepth > maxBufDepth:
		return fmt.Errorf("campaign: buffer depth %d beyond limit %d", cfg.BufDepth, maxBufDepth)
	case cfg.MsgLen > maxMsgLen:
		return fmt.Errorf("campaign: message length %d beyond limit %d", cfg.MsgLen, maxMsgLen)
	}
	nodes := 1
	for i := 0; i < cfg.N; i++ {
		nodes *= cfg.K
		if cfg.K > 0 && nodes > maxNodes {
			return fmt.Errorf("campaign: %d-ary %d-cube exceeds %d nodes", cfg.K, cfg.N, maxNodes)
		}
	}
	return nil
}

// Spec describes one campaign: a swept parameter over a base configuration.
// Fields absent from a decoded spec take the defaults of DefaultSpec.
type Spec struct {
	// Vary names the swept parameter: rate, vcs, buf, threshold, msglen or
	// faults. Values holds the swept values as strings, exactly as they
	// would be passed to sweep -values.
	Vary   string   `json:"vary"`
	Values []string `json:"values"`

	// Limiter is the injection-limitation mechanism by name: none, lf,
	// dril, alo, alo-rule-a, alo-rule-b or alo-all-channels.
	Limiter string `json:"limiter"`

	// Base engine configuration (see sim.Config). No field is omitempty:
	// several zeros are legal values that differ from the defaults
	// (detection_threshold 0 disables detection, warmup_cycles 0 skips
	// warm-up), so the wire form always spells every field out and a
	// decoded spec round-trips exactly.
	K                  int     `json:"k"`
	N                  int     `json:"n"`
	VCs                int     `json:"vcs"`
	BufDepth           int     `json:"buf_depth"`
	Routing            string  `json:"routing"`
	Pattern            string  `json:"pattern"`
	MsgLen             int     `json:"msg_len"`
	Rate               float64 `json:"rate"`
	DetectionThreshold int32   `json:"detection_threshold"`
	WarmupCycles       int64   `json:"warmup_cycles"`
	MeasureCycles      int64   `json:"measure_cycles"`
	DrainCycles        int64   `json:"drain_cycles"`
	Seed               uint64  `json:"seed"`

	// Faults is the fraction of channels to fail in every point [0,1);
	// FaultSeed drives the fault planner. A "faults" sweep overrides the
	// fraction per point.
	Faults    float64 `json:"faults"`
	FaultSeed uint64  `json:"fault_seed"`

	// Robustness knobs, applied by whatever executes the points.
	CheckpointEvery int64 `json:"checkpoint_every"`
	StallWindow     int64 `json:"stall_window"`
	PointWallMS     int64 `json:"point_wall_ms"`
	Retries         int   `json:"point_retries"`
}

// UnmarshalJSON decodes a spec strictly over DefaultSpec: absent fields
// keep their defaults, unknown fields are errors (a typo'd knob silently
// falling back to a default would run the wrong experiment).
func (s *Spec) UnmarshalJSON(data []byte) error {
	type specAlias Spec // no methods: avoids recursing into UnmarshalJSON
	tmp := specAlias(DefaultSpec())
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tmp); err != nil {
		return err
	}
	*s = Spec(tmp)
	return nil
}

// DefaultSpec returns a spec whose base configuration matches
// sim.DefaultConfig, checkpointing every 2 000 cycles with two attempts a
// point; cmd/sweep's flags default to these values. Vary and Values are left
// empty — a runnable spec must set them.
func DefaultSpec() Spec {
	cfg := sim.DefaultConfig()
	return Spec{
		Limiter:            "alo",
		K:                  cfg.K,
		N:                  cfg.N,
		VCs:                cfg.VCs,
		BufDepth:           cfg.BufDepth,
		Routing:            cfg.Routing,
		Pattern:            cfg.Pattern,
		MsgLen:             cfg.MsgLen,
		Rate:               cfg.Rate,
		DetectionThreshold: cfg.DetectionThreshold,
		WarmupCycles:       cfg.WarmupCycles,
		MeasureCycles:      cfg.MeasureCycles,
		DrainCycles:        cfg.DrainCycles,
		Seed:               cfg.Seed,
		FaultSeed:          1,
		CheckpointEvery:    2000,
		Retries:            2,
	}
}

// DecodeSpec reads one JSON spec from r, strictly: unknown fields, trailing
// data and oversized documents are errors, and the decoded spec must expand
// to a valid point list. Absent fields take DefaultSpec's values.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("campaign: decode spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: decode spec: trailing data after JSON document")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec by expanding it: every point must resolve to a
// digestible engine configuration.
func (s *Spec) Validate() error {
	_, err := s.Points()
	return err
}

// BaseConfig resolves the spec's base engine configuration (before the
// swept value is applied).
func (s *Spec) BaseConfig() (sim.Config, error) {
	f, err := baseline.LimiterByName(s.Limiter)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.K, cfg.N = s.K, s.N
	cfg.VCs, cfg.BufDepth = s.VCs, s.BufDepth
	cfg.Routing, cfg.Pattern = s.Routing, s.Pattern
	cfg.MsgLen, cfg.Rate = s.MsgLen, s.Rate
	cfg.DetectionThreshold = s.DetectionThreshold
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = s.WarmupCycles, s.MeasureCycles, s.DrainCycles
	cfg.Seed = s.Seed
	cfg.Limiter, cfg.LimiterName = f, s.Limiter
	return cfg, nil
}

// Point is one fully resolved sweep point.
type Point struct {
	Index  int
	Raw    string // the swept value as given
	Config sim.Config
	Digest string // sim.ConfigDigest of Config
}

// varies sets a swept value, as written, on one point: on its engine config,
// or for "faults" on the fraction of links its fault plan fails. It has one
// entry per parameter a spec can vary.
var varies = map[string]func(raw string, run *sim.Config, frac *float64) error{
	"rate":      parsed(parseFloat, func(c *sim.Config, _ *float64, v float64) { c.Rate = v }),
	"vcs":       parsed(strconv.Atoi, func(c *sim.Config, _ *float64, v int) { c.VCs = v }),
	"buf":       parsed(strconv.Atoi, func(c *sim.Config, _ *float64, v int) { c.BufDepth = v }),
	"threshold": parsed(strconv.Atoi, func(c *sim.Config, _ *float64, v int) { c.DetectionThreshold = int32(v) }),
	"msglen":    parsed(strconv.Atoi, func(c *sim.Config, _ *float64, v int) { c.MsgLen = v }),
	"faults":    parsed(parseFloat, func(_ *sim.Config, frac *float64, v float64) { *frac = v }),
}

// parsed is a varies entry: parse the value, then set it.
func parsed[T any](parse func(string) (T, error), set func(*sim.Config, *float64, T)) func(string, *sim.Config, *float64) error {
	return func(raw string, run *sim.Config, frac *float64) error {
		v, err := parse(raw)
		if err != nil {
			return err
		}
		set(run, frac, v)
		return nil
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// Points expands the spec into its sweep points, resolving one engine
// config (including the per-point fault plan) and one config digest per
// point. The expansion is deterministic: every caller — coordinator,
// workers, local sweep — derives bit-identical configurations.
func (s *Spec) Points() ([]Point, error) {
	switch {
	case len(s.Values) == 0:
		return nil, fmt.Errorf("campaign: spec has no values")
	case len(s.Values) > maxSpecPoints:
		return nil, fmt.Errorf("campaign: spec has %d values (limit %d)", len(s.Values), maxSpecPoints)
	case s.Faults < 0 || s.Faults >= 1:
		return nil, fmt.Errorf("campaign: fault fraction %v outside [0,1)", s.Faults)
	case s.CheckpointEvery < 0 || s.StallWindow < 0 || s.PointWallMS < 0 || s.Retries < 0:
		return nil, fmt.Errorf("campaign: negative robustness knob")
	}
	base, err := s.BaseConfig()
	if err != nil {
		return nil, err
	}
	set, ok := varies[s.Vary]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown vary %q", s.Vary)
	}
	points := make([]Point, 0, len(s.Values))
	for i, raw := range s.Values {
		raw = strings.TrimSpace(raw)
		run, frac := base, s.Faults
		if err := set(raw, &run, &frac); err != nil {
			return nil, fmt.Errorf("campaign: value %q: %w", raw, err)
		}
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("campaign: point %d fault fraction %v outside [0,1)", i, frac)
		}
		if err := boundConfig(&run); err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", i, raw, err)
		}
		if frac > 0 {
			if run.K < 2 || run.N < 1 {
				return nil, fmt.Errorf("campaign: bad topology %d-ary %d-cube", run.K, run.N)
			}
			sched, err := fault.Plan(topology.New(run.K, run.N),
				fault.Profile{LinkFraction: frac, Seed: s.FaultSeed})
			if err != nil {
				return nil, err
			}
			run.Faults = sched
		}
		digest, err := sim.ConfigDigest(run)
		if err != nil {
			return nil, fmt.Errorf("campaign: point %d (%s): %w", i, raw, err)
		}
		points = append(points, Point{Index: i, Raw: raw, Config: run, Digest: digest})
	}
	return points, nil
}

// ID derives the campaign's identity from the spec's canonical JSON: the
// same experiment always maps to the same id, making submission idempotent.
func (s *Spec) ID() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}
