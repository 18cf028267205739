// Package sim is the cycle-driven flit-level wormhole network simulator.
//
// It composes the substrate packages — topology, router, routing, traffic,
// deadlock, stats — into the network model of the paper's §4.1: a
// bidirectional k-ary n-cube whose routers have four injection and four
// ejection channels, physical channels split into virtual channels with
// four-flit buffers, one-cycle routing/crossbar/link stages, true fully
// adaptive routing with FC3D-style deadlock detection and software-based
// recovery, and a pluggable message-injection limitation mechanism
// (internal/core, internal/baseline).
//
// Time advances in global synchronous cycles. Each cycle runs five phases:
// message generation, injection-limitation decisions, virtual-channel
// allocation (routing), separable switch allocation, and two-phase flit
// movement (all moves are planned against start-of-cycle state, then
// applied). A buffer slot freed in cycle t becomes usable in cycle t+1,
// which models a one-cycle credit loop.
package sim

import (
	"fmt"
	"runtime"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/deadlock"
	"wormnet/internal/fault"
	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// Config describes one simulation run. The zero value is not runnable; use
// DefaultConfig or fill the fields and let New validate them.
type Config struct {
	// Topology.
	K int // radix of the k-ary n-cube
	N int // dimensions

	// Router microarchitecture.
	VCs         int // virtual channels per physical channel (paper: up to 3)
	BufDepth    int // flits per virtual-channel buffer (paper: 4)
	InjChannels int // injection channels per node (paper: 4)
	EjChannels  int // ejection channels per node (paper: 4)

	// Routing engine: "tfar" (default, needs deadlock recovery), "duato"
	// (adaptive with escape channels, deadlock-free) or "dor"
	// (deterministic dateline dimension-order, deadlock-free).
	Routing string

	// Workload.
	Pattern string  // traffic pattern name, see traffic.ByName
	MsgLen  int     // message length in flits (paper: 16 or 64)
	Rate    float64 // offered load in flits/node/cycle

	// Burst enables on/off modulated sources with the given mean ON/OFF
	// period lengths; the zero value keeps the steady Poisson process. The
	// long-run average load stays Rate, the ON-period peak is
	// Rate*Burst.PeakFactor().
	Burst traffic.BurstProfile

	// Sources, when non-nil, overrides the built-in Poisson/bursty traffic
	// generators: each node's generator comes from this factory instead
	// (e.g. a traffic.ScriptSource replaying a recorded schedule). Pattern,
	// Rate and Burst are ignored for generation when set. SourceName must
	// then be set too: factories are funcs and carry no identity of their
	// own, and the name stands in for the factory in ConfigDigest — two
	// configs with the same SourceName are assumed to produce identical
	// generators.
	Sources traffic.SourceFactory
	// SourceName labels the custom source in manifests and the config
	// digest; it must uniquely describe the factory's behaviour.
	SourceName string

	// Adversary is the adversarial workload overlay: a seeded fraction of
	// rogue nodes offering duty-cycled hotspot storms that bypass the
	// injection limiter (see AdversaryProfile). The zero value disables it.
	// Mutually exclusive with Sources — the overlay decides per-node
	// generators itself. When enabled, the collector splits its accounting
	// into "good" and "rogue" classes (stats.ClassResult).
	Adversary AdversaryProfile

	// Injection limitation mechanism. Nil means no limitation.
	Limiter core.Factory
	// LimiterName labels the mechanism in results (factories are funcs and
	// carry no name of their own).
	LimiterName string

	// Deadlock handling.
	DetectionThreshold int32 // consecutive blocked cycles (paper: 32); <1 disables
	RecoveryDelay      int64 // software re-injection cost in cycles
	// LenientDetection drops the flit-activity "vital sign" from the
	// detection criterion: a header is presumed deadlocked after
	// DetectionThreshold blocked cycles whenever none of its candidate
	// virtual channels is free, even if flits are still moving through
	// them. This matches cruder timeout-style detectors (and produces much
	// higher detected-deadlock percentages at saturation, like the paper's
	// 20-70% figures); the default strict criterion fires only on total
	// stillness.
	LenientDetection bool

	// Faults is the fault-injection schedule: timed link and router
	// failures (and repairs) applied at cycle boundaries. Nil or empty
	// disables fault injection entirely — the engine then runs the exact
	// fault-free code path of the seed simulator.
	Faults *fault.Schedule
	// Retry is the source-retry policy for messages killed by faults. The
	// zero value selects fault.DefaultRetryPolicy; ignored when Faults is
	// empty.
	Retry fault.RetryPolicy

	// Measurement.
	WarmupCycles  int64 // cycles before the measurement window opens
	MeasureCycles int64 // length of the measurement window
	DrainCycles   int64 // extra cycles after the window to let messages finish

	// Seed drives all of the run's (deterministic) randomness.
	Seed uint64

	// Workers is the number of goroutines the engine shards each cycle
	// across. 0 and 1 run the cycle schedule over one shard on the calling
	// goroutine, and so does any value on a single-P host (GOMAXPROCS=1 at
	// New); higher values partition the node arenas into Workers contiguous
	// shards and run the same schedule shard-parallel with barriers in
	// between. Results are bit-identical for any worker count
	// (see TestGoldenParallelEquivalence); an engine with Workers > 1 may own
	// background goroutines and should be released with Engine.Close when
	// the run is done.
	Workers int
}

// DefaultConfig returns the paper's standard configuration: an 8-ary 3-cube
// with 3 virtual channels of 4-flit buffers, TFAR routing, FC3D detection at
// 32 cycles, software recovery, uniform traffic with 16-flit messages, and
// the ALO limiter.
func DefaultConfig() Config {
	return Config{
		K: 8, N: 3,
		VCs: 3, BufDepth: 4,
		InjChannels: 4, EjChannels: 4,
		Routing: "tfar",
		Pattern: "uniform", MsgLen: 16, Rate: 0.3,
		Limiter: core.NewALO(), LimiterName: "alo",
		DetectionThreshold: deadlock.DefaultThreshold,
		RecoveryDelay:      deadlock.DefaultProcessingDelay,
		WarmupCycles:       8000, MeasureCycles: 24000, DrainCycles: 2000,
		Seed: 1,
	}
}

// QuickConfig returns a scaled-down configuration (4-ary 2-cube, shorter
// run) that preserves the model's behaviour at a fraction of the cost; it
// is what the test suite and the benchmark harness use.
func QuickConfig() Config {
	c := DefaultConfig()
	c.K, c.N = 4, 2
	c.WarmupCycles, c.MeasureCycles, c.DrainCycles = 2000, 6000, 1000
	return c
}

// validate checks the configuration and applies the few defaults that have
// unambiguous values.
func (c *Config) validate() error {
	switch {
	case c.K < 2 || c.N < 1:
		return fmt.Errorf("sim: bad topology %d-ary %d-cube", c.K, c.N)
	case c.VCs < 1:
		return fmt.Errorf("sim: need at least 1 virtual channel, got %d", c.VCs)
	case c.BufDepth < 1 || c.BufDepth > router.MaxDepth:
		return fmt.Errorf("sim: buffer depth %d outside [1, %d], the flits a buffer holds", c.BufDepth, router.MaxDepth)
	case c.InjChannels < 1 || c.EjChannels < 1:
		return fmt.Errorf("sim: need at least 1 injection and ejection channel")
	case c.MsgLen < 1 || c.MsgLen > router.MaxMessageLen:
		return fmt.Errorf("sim: message length %d outside [1, %d], the longest message a buffer holds", c.MsgLen, router.MaxMessageLen)
	case c.Rate < 0:
		return fmt.Errorf("sim: negative offered rate %v", c.Rate)
	case c.MeasureCycles < 1:
		return fmt.Errorf("sim: measurement window must be positive")
	case c.WarmupCycles < 0 || c.DrainCycles < 0:
		return fmt.Errorf("sim: negative warmup or drain")
	case c.RecoveryDelay < 0:
		return fmt.Errorf("sim: negative recovery delay")
	case c.Workers < 0:
		return fmt.Errorf("sim: negative worker count %d", c.Workers)
	}
	// The one width limit: the allocators keep a node's crossbar inputs
	// (input VCs, then injection channels) and its outputs (physical, then
	// ejection) as the bits of one 64-bit word each.
	if in, out := 2*c.N*c.VCs+c.InjChannels, 2*c.N+c.EjChannels; in > 64 || out > 64 {
		return fmt.Errorf("sim: router too wide: 2N*VCs+InjChannels = %d crossbar inputs and 2N+EjChannels = %d outputs, at most 64 each", in, out)
	}
	if c.Routing == "" {
		c.Routing = "tfar"
	}
	switch c.Routing {
	case "tfar", "dor", "duato":
	default:
		return fmt.Errorf("sim: unknown routing %q", c.Routing)
	}
	if c.Routing == "dor" && c.VCs < 2 && c.K > 2 {
		return fmt.Errorf("sim: dor routing needs >= 2 virtual channels")
	}
	if c.Routing == "duato" && c.VCs < 3 {
		return fmt.Errorf("sim: duato routing needs >= 3 virtual channels")
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if _, err := traffic.ByName(c.Pattern, topology.New(c.K, c.N)); err != nil {
		return err
	}
	if err := c.Burst.Validate(); err != nil {
		return err
	}
	if !c.Faults.Empty() {
		if err := c.Faults.Validate(topology.New(c.K, c.N)); err != nil {
			return err
		}
		if c.Retry == (fault.RetryPolicy{}) {
			c.Retry = fault.DefaultRetryPolicy()
		}
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	if c.Limiter == nil {
		c.Limiter = baseline.NewNone()
		if c.LimiterName == "" {
			c.LimiterName = "none"
		}
	}
	if c.LimiterName == "" {
		c.LimiterName = "custom"
	}
	if c.Adversary.Enabled() {
		if c.Sources != nil {
			return fmt.Errorf("sim: Adversary and custom Sources are mutually exclusive")
		}
		if err := c.Adversary.Validate(topology.New(c.K, c.N)); err != nil {
			return err
		}
	}
	if c.Sources != nil && c.SourceName == "" {
		return fmt.Errorf("sim: custom Sources needs a SourceName for the config digest")
	}
	if c.Sources == nil && c.SourceName != "" {
		return fmt.Errorf("sim: SourceName %q set without custom Sources", c.SourceName)
	}
	return nil
}

// TotalCycles returns the full run length.
func (c Config) TotalCycles() int64 {
	return c.WarmupCycles + c.MeasureCycles + c.DrainCycles
}

// Manifest returns the configuration as a flat, JSON-marshalable map for
// run manifests (obs.NewManifest). Func-typed fields (the limiter factory)
// are represented by their name; the fault schedule by its event count.
func (c Config) Manifest() map[string]any {
	m := map[string]any{
		"k": c.K, "n": c.N,
		"vcs": c.VCs, "buf_depth": c.BufDepth,
		"inj_channels": c.InjChannels, "ej_channels": c.EjChannels,
		"routing": c.Routing,
		"pattern": c.Pattern, "msg_len": c.MsgLen, "rate": c.Rate,
		"limiter":             c.LimiterName,
		"detection_threshold": c.DetectionThreshold,
		"recovery_delay":      c.RecoveryDelay,
		"lenient_detection":   c.LenientDetection,
		"warmup_cycles":       c.WarmupCycles,
		"measure_cycles":      c.MeasureCycles,
		"drain_cycles":        c.DrainCycles,
		"seed":                c.Seed,
		"workers":             c.Workers,
	}
	if c.Burst.Enabled() {
		m["burst_on"], m["burst_off"] = c.Burst.OnMean, c.Burst.OffMean
	}
	if c.Sources != nil {
		m["source"] = c.SourceName
	}
	if !c.Faults.Empty() {
		m["fault_events"] = len(c.Faults.Events())
	}
	if c.Adversary.Enabled() {
		m["adv_rogue_fraction"] = c.Adversary.RogueFraction
		m["adv_rogue_rate"] = c.Adversary.RogueRate
		m["adv_storm_period"] = c.Adversary.StormPeriod
		m["adv_storm_on"] = c.Adversary.StormOn
		m["adv_hotspot"] = int(c.Adversary.Hotspot)
		m["adv_seed"] = c.Adversary.Seed
	}
	return m
}

// DefaultWorkers returns a reasonable Workers value for running one engine
// on the current machine: GOMAXPROCS — the number of goroutines that can
// actually run, which the scheduler may cap well below NumCPU in
// containers or under explicit limits — capped at 8 (the phase barriers
// outgrow the per-shard work beyond that on the paper's network sizes).
// Callers running many engines concurrently (sweeps) should stay at 1.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// WithLimiter returns a copy of the config using the named limiter factory.
func (c Config) WithLimiter(name string, f core.Factory) Config {
	c.Limiter = f
	c.LimiterName = name
	return c
}

// WithRate returns a copy of the config at a different offered load.
func (c Config) WithRate(rate float64) Config {
	c.Rate = rate
	return c
}

// WithFaults returns a copy of the config using the given fault schedule.
func (c Config) WithFaults(s *fault.Schedule) Config {
	c.Faults = s
	return c
}
