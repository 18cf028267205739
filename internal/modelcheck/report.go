package modelcheck

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Report is the outcome of one exploration: coverage statistics, the FC3D
// verdict accounting, and any checker failures.
type Report struct {
	Spec      Spec
	Threshold int32

	// Coverage.
	States           int   // deduplicated reachable states visited
	Edges            int64 // actions executed (including ones landing on visited states)
	DupEdges         int64 // actions whose successor was already visited
	Terminals        int   // states with the full catalog delivered and the network empty
	HorizonTruncated int   // states not expanded because MaxCycles was reached
	MaxDepth         int   // deepest expanded schedule, in cycles
	BudgetTruncated  bool  // exploration stopped at MaxStates
	Exhausted        bool  // frontier drained: every reachable state within the horizon visited

	// Deadlock accounting.
	DeadlockStates int   // states whose ground truth has >= 1 deadlocked message
	Probes         int   // FN probes run (one per deadlock state)
	Detected       int   // probes where FC3D fired on a deadlocked message
	FalseNegatives int   // probes where FC3D stayed silent — checker failure
	OracleUnsound  int   // probes where an "oracle-deadlocked" message was delivered — checker failure
	TruePositives  int64 // expansion-step recoveries of ground-truth-deadlocked messages
	FalsePositives int64 // expansion-step recoveries of live messages

	// Failures.
	Violations      []string // invariant / ALO-property / round-trip failures
	Counterexamples []string // one summary line per dumped counterexample
}

// FPRate is the false-positive fraction of all recoveries observed during
// expansion (0 when no recovery fired).
func (r *Report) FPRate() float64 {
	total := r.TruePositives + r.FalsePositives
	if total == 0 {
		return 0
	}
	return float64(r.FalsePositives) / float64(total)
}

// Failed reports whether the exploration found any checker failure: a
// false negative, an unsound oracle verdict, or a per-state check
// violation. False positives are quantified, never fatal — FC3D is a
// heuristic detector and the paper expects conservative misfires.
func (r *Report) Failed() bool {
	return r.FalseNegatives > 0 || r.OracleUnsound > 0 || len(r.Violations) > 0
}

// Format renders the report for humans.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model: %d-ary %d-cube, %d VCs x %d flits, %s routing, threshold %d, %d catalog messages\n",
		r.Spec.K, r.Spec.N, r.Spec.VCs, r.Spec.BufDepth, r.Spec.Routing, r.Threshold, len(r.Spec.Messages))
	cov := "exhausted within horizon"
	if r.BudgetTruncated {
		cov = "truncated at state budget"
	} else if !r.Exhausted {
		cov = "incomplete"
	}
	fmt.Fprintf(&b, "coverage: %d states (%s), %d edges (%d to visited states), max depth %d/%d cycles\n",
		r.States, cov, r.Edges, r.DupEdges, r.MaxDepth, r.Spec.MaxCycles)
	fmt.Fprintf(&b, "          %d terminal states, %d schedules cut at the horizon\n",
		r.Terminals, r.HorizonTruncated)
	fmt.Fprintf(&b, "deadlock: %d ground-truth deadlock states, %d probes -> %d detected, %d false negatives, %d oracle-unsound\n",
		r.DeadlockStates, r.Probes, r.Detected, r.FalseNegatives, r.OracleUnsound)
	fmt.Fprintf(&b, "verdicts: %d true-positive recoveries, %d false-positive recoveries (FP rate %.4f)\n",
		r.TruePositives, r.FalsePositives, r.FPRate())
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, "VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	if len(r.Counterexamples) > 0 {
		fmt.Fprintf(&b, "counterexamples (%d):\n", len(r.Counterexamples))
		for _, c := range r.Counterexamples {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	if r.Failed() {
		b.WriteString("RESULT: FAILED\n")
	} else {
		b.WriteString("RESULT: ok — zero false negatives, all invariants held\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON (for machine consumption and
// the experiment docs).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// SweepResult is one threshold's report in a detection-threshold sweep.
type SweepResult struct {
	Threshold int32
	Report    *Report
}

// RunSweep explores the same model at each detection threshold and
// collects the per-threshold reports — the data behind the
// FP-rate-vs-threshold table. Options apply to every run (journaling is
// disabled during sweeps: the journal format holds a single exploration).
func RunSweep(base Spec, thresholds []int32, opt Options) ([]SweepResult, error) {
	opt.Journal = ""
	out := make([]SweepResult, 0, len(thresholds))
	for _, th := range thresholds {
		spec := base
		spec.Threshold = th
		x, err := New(spec, opt)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: threshold %d: %w", th, err)
		}
		rep, err := x.Run()
		if err != nil {
			return nil, fmt.Errorf("modelcheck: threshold %d: %w", th, err)
		}
		opt.logf("threshold %d: %d states, %d deadlock states, FP rate %.4f",
			th, rep.States, rep.DeadlockStates, rep.FPRate())
		out = append(out, SweepResult{Threshold: th, Report: rep})
	}
	return out, nil
}

// FormatSweep renders the FP-rate-vs-threshold table.
func FormatSweep(results []SweepResult) string {
	var b strings.Builder
	b.WriteString("threshold  states  deadlock  probes  detected  falseneg  truepos  falsepos  fp-rate\n")
	for _, sr := range results {
		r := sr.Report
		fmt.Fprintf(&b, "%9d  %6d  %8d  %6d  %8d  %8d  %7d  %8d  %7.4f\n",
			sr.Threshold, r.States, r.DeadlockStates, r.Probes, r.Detected,
			r.FalseNegatives, r.TruePositives, r.FalsePositives, r.FPRate())
	}
	return b.String()
}
