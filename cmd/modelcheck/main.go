// Command modelcheck explores the bounded state space of a tiny wormhole
// network exhaustively and validates the FC3D deadlock machinery against a
// ground-truth channel-wait-graph oracle at every reachable state.
//
// The default model is a 2-ary 2-cube with single-flit buffers, TFAR
// routing and a 4-message ring catalog — small enough to exhaust within a
// CI budget, adversarial enough to reach real cyclic deadlocks:
//
//	modelcheck
//
// Sweep the detection threshold to quantify the false-positive rate (the
// data behind the FP-vs-threshold table in EXPERIMENTS.md):
//
//	modelcheck -sweep 4,8,16,32,64
//
// Crash-resume long explorations, dump replayable counterexamples, and
// replay a committed counterexample to check whether the detector miss it
// documents is fixed:
//
//	modelcheck -journal explore.wncp -cxdir ./cx
//	modelcheck -resume explore.wncp
//	modelcheck -replay cx/cx-001-false-negative.wncp
//
// Exit codes: 0 ok; 1 checker failure (false negative, unsound oracle,
// invariant violation) or fewer than -min-states states explored; 2 usage
// or configuration error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wormnet/internal/deadlock"
	"wormnet/internal/modelcheck"
)

func main() {
	var (
		k         = flag.Int("k", 2, "radix of the k-ary n-cube")
		n         = flag.Int("n", 2, "dimension of the k-ary n-cube")
		vcs       = flag.Int("vcs", 1, "virtual channels per physical channel")
		bufDepth  = flag.Int("buf", 1, "flit buffer depth per virtual channel")
		inj       = flag.Int("inj", 1, "injection channels per node")
		ej        = flag.Int("ej", 1, "ejection channels per node")
		routing   = flag.String("routing", "tfar", "routing function (tfar needs recovery: FC3D on trial)")
		threshold = flag.Int("threshold", int(deadlock.DefaultThreshold), "FC3D detection threshold (cycles)")
		recovery  = flag.Int64("recovery-delay", 8, "recovery pipeline delay (cycles)")
		lenient   = flag.Bool("lenient", false, "timeout-style detection: presume deadlock on blockage alone, without the flit-activity veto")
		catalog   = flag.String("messages", "0>3x6,3>0x6,1>2x6,2>1x6", "message catalog: comma-separated src>dstxlen entries (distinct sources)")
		cycles    = flag.Int64("cycles", 96, "schedule horizon in cycles")
		states    = flag.Int("states", 150000, "visited-state budget")
		probe     = flag.Int64("probe", 0, "false-negative probe budget in cycles (0 = 2*threshold+4*recovery+64)")
		minStates = flag.Int("min-states", 0, "fail unless at least this many states were explored")
		minDL     = flag.Int("min-deadlocks", 0, "fail unless at least this many ground-truth deadlock states were reached")
		exhausted = flag.Bool("exhausted", false, "fail unless the state space was exhausted within the horizon")

		sweep   = flag.String("sweep", "", "comma-separated thresholds: run one exploration per value, print the FP table")
		journal = flag.String("journal", "", "crash-resume journal path (WNCP framing)")
		every   = flag.Int("journal-every", 2000, "journal flush interval in newly visited states")
		resume  = flag.String("resume", "", "resume exploration from a journal written by a previous run")
		cxdir   = flag.String("cxdir", "", "directory receiving replayable counterexample files")
		replay  = flag.String("replay", "", "replay one counterexample file and exit (0 = fixed, 1 = still fails)")
		jsonOut = flag.Bool("json", false, "print the report as JSON instead of text")
		quiet   = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "modelcheck: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	opt := modelcheck.Options{
		Journal:           *journal,
		JournalEvery:      *every,
		CounterexampleDir: *cxdir,
	}
	if !*quiet {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "modelcheck: "+format+"\n", args...)
		}
	}

	if *replay != "" {
		cx, err := modelcheck.ReadCounterexample(*replay)
		if err != nil {
			fatal(2, err)
		}
		fmt.Print(cx.String())
		if err := cx.Replay(); err != nil {
			fmt.Printf("REPLAY: still fails: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("REPLAY: fixed — the recorded failure no longer reproduces")
		return
	}

	messages, err := parseCatalog(*catalog)
	if err != nil {
		fatal(2, err)
	}
	spec := modelcheck.Spec{
		K: *k, N: *n,
		VCs: *vcs, BufDepth: *bufDepth,
		InjChannels: *inj, EjChannels: *ej,
		Routing:       *routing,
		Threshold:     int32(*threshold),
		RecoveryDelay: *recovery,
		Lenient:       *lenient,
		Messages:      messages,
		MaxCycles:     *cycles,
		MaxStates:     *states,
		ProbeBudget:   *probe,
	}

	if *sweep != "" {
		thresholds, err := parseThresholds(*sweep)
		if err != nil {
			fatal(2, err)
		}
		results, err := modelcheck.RunSweep(spec, thresholds, opt)
		if err != nil {
			fatal(2, err)
		}
		fmt.Print(modelcheck.FormatSweep(results))
		for _, sr := range results {
			if sr.Report.Failed() {
				fmt.Printf("RESULT: FAILED at threshold %d\n", sr.Threshold)
				os.Exit(1)
			}
		}
		return
	}

	var x *modelcheck.Explorer
	if *resume != "" {
		x, err = modelcheck.Resume(*resume, opt)
	} else {
		x, err = modelcheck.New(spec, opt)
	}
	if err != nil {
		fatal(2, err)
	}
	before, start := x.Report().States, time.Now()
	rep, err := x.Run()
	if err != nil {
		fatal(2, err)
	}
	// The rate counts this run's states only (a resumed exploration starts
	// with the journal's); it goes to stderr under -json so stdout stays JSON.
	// The rest says why a run was slow or poorly parallel: the workers (one
	// per P), the tasks idle ones took from busy ones, the task logs made (a
	// worker holds at most nine), the snapshots carved (the entries the run
	// stored states in), the edges explored and then discarded (duplicate subtrees, tasks past the budget), the
	// engine restores a state and the memory of the visited set, whose bytes
	// a state are what a larger budget costs.
	elapsed, st := time.Since(start), x.RunStats()
	visited := rep.States - before
	timing := fmt.Sprintf("timing: %d states in %.2fs (%.0f states/s), %d workers, %d tasks donated, %d task logs, %d snapshots carved, %d edges discarded, %.2f restores a state, visited set %.2f MB (%.1f B a state)\n",
		visited, elapsed.Seconds(), float64(visited)/elapsed.Seconds(),
		st.Workers, st.Donated, st.Logs, st.Carved, st.Discarded, float64(st.Restores)/float64(max(visited, 1)),
		float64(st.VisitedBytes)/(1<<20), float64(st.VisitedBytes)/float64(max(rep.States, 1)))
	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fatal(2, err)
		}
		fmt.Printf("%s\n", out)
		fmt.Fprint(os.Stderr, timing)
	} else {
		fmt.Print(rep.Format(), timing)
	}
	if rep.Failed() {
		os.Exit(1)
	}
	if rep.States < *minStates {
		fmt.Printf("RESULT: FAILED — %d states explored, -min-states requires %d\n", rep.States, *minStates)
		os.Exit(1)
	}
	if rep.DeadlockStates < *minDL {
		fmt.Printf("RESULT: FAILED — %d deadlock states reached, -min-deadlocks requires %d\n", rep.DeadlockStates, *minDL)
		os.Exit(1)
	}
	if *exhausted && !rep.Exhausted {
		fmt.Printf("RESULT: FAILED — state space not exhausted within the horizon (-exhausted)\n")
		os.Exit(1)
	}
}

// parseCatalog parses "src>dstxlen" entries: "0>3x6,3>0x6".
func parseCatalog(s string) ([]modelcheck.MsgSpec, error) {
	var out []modelcheck.MsgSpec
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		src, rest, ok := strings.Cut(ent, ">")
		if !ok {
			return nil, fmt.Errorf("modelcheck: catalog entry %q: want src>dstxlen", ent)
		}
		dst, length, ok := strings.Cut(rest, "x")
		if !ok {
			return nil, fmt.Errorf("modelcheck: catalog entry %q: want src>dstxlen", ent)
		}
		sv, err := strconv.ParseInt(strings.TrimSpace(src), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: catalog entry %q: %w", ent, err)
		}
		dv, err := strconv.ParseInt(strings.TrimSpace(dst), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: catalog entry %q: %w", ent, err)
		}
		lv, err := strconv.Atoi(strings.TrimSpace(length))
		if err != nil {
			return nil, fmt.Errorf("modelcheck: catalog entry %q: %w", ent, err)
		}
		out = append(out, modelcheck.MsgSpec{Src: int32(sv), Dst: int32(dv), Length: lv})
	}
	return out, nil
}

func parseThresholds(s string) ([]int32, error) {
	var out []int32
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("modelcheck: threshold %q: %w", f, err)
		}
		out = append(out, int32(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("modelcheck: empty threshold sweep")
	}
	return out, nil
}

func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "modelcheck: %v\n", err)
	os.Exit(code)
}
