// Command bench is the simulator's performance ledger: one command, six
// workloads, every end-to-end and per-layer host-time metric by name and
// unit, with the simulated results checked against pinned goldens. It drives
// the repository through its public functions only. README.md in this
// directory is the metric catalogue and the method.
//
// The repository's benchmark contract invokes it (through run.sh) as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without -workload it runs all
// six workloads, untraced then traced, and prints one ledger document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// perSecond is how many segments (or repetitions) of this workload the
	// builder's host completes per second; -seconds times it is the segment
	// count, so the work is the same on every commit and every host.
	perSecond float64
	// measure is the untraced run (end-to-end metrics), traced the shorter
	// traced run with the layer probes (per-layer metrics).
	measure func(r *run, segs int) error
	traced  func(r *run, segs int) error
}

var workloads = []workload{
	{"knee-serial", "rate 0.65, no limiter, serial: the historical BenchmarkEngineCycles point; route+switch+move are ~95% of the cycle, so engine-core changes show and limiter changes must not",
		3.0, kneeSerial.measure, kneeSerial.traced},
	{"sat-alo-serial", "rate 0.9 with ALO, serial: the paper's regime, every node backlogged and ALO denying every cycle; limiter, source-queue and memory changes show here only",
		1.6, satALO.measure, satALO.traced},
	{"idle-alo-serial", "rate 0.2 with ALO, serial: cost follows occupied VCs, so any per-cycle fixed cost is amplified ~4x and shows here first; limiter changes show nothing",
		3.2, idleALO.measure, idleALO.traced},
	{"knee-workers2", "knee-serial with Workers=2: the sharded schedule (four barriers, SPSC rings); must be bit-identical to serial, and a serial gain that costs the sharded path shows as a loss",
		3.0, kneeWorkers2.measure, kneeWorkers2.traced},
	{"fig-sweep", "a Fig-5-shaped 16-point sweep through experiments.runAll: what regenerating a figure costs, with per-point sim.New, the runner's core utilisation and the LF/DRIL baselines",
		0.3, measureSweep, tracedSweep},
	{"mc-exhaust", "modelcheck exhausting the CI-pinned 18921-state model: snapshot/restore/hash/invariants per state, the inverse of the engine workloads",
		0.7, measureMC, tracedMC},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// run is the state of one workload run.
type run struct {
	workload string
	seed     uint64
	smoke    bool
	gold     *goldens
	res      *result
	rec      *recorder // nil on the untraced run
	log      io.Writer
	// side holds the untraced run's own steadiness readings (segment spread,
	// host calibration); they are per-layer metrics, so the untraced result
	// cannot carry them, and the ledger prefers them to the traced run's.
	side map[string]float64
}

// check counts one correctness check; a failed one is logged with its reason.
func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Fprintf(r.log, "bench: %s: FAILED check: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// checkErr counts a check that passes when err is nil.
func (r *run) checkErr(err error, what string) {
	r.check(err == nil, "%s: %v", what, err)
}

// mallocs reads the process's cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setEndToEnd reports the five end-to-end metrics of an untraced run from
// its samples. The caller still references the workload's state, so the
// forced collection here leaves exactly that state live.
func (r *run) setEndToEnd(setups, rates, calib []float64, allocs uint64, ops int64) {
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.res.set("setup_s", median(setups))
	r.res.set("ops_per_s", median(rates))
	r.res.set("allocs_per_op", float64(allocs)/float64(ops))
	r.res.set("heap_live_mb", float64(live.HeapAlloc)/(1<<20))
	r.res.set("ops_done", float64(ops))
	r.side["bench.segment_iqr_pct"] = 100 * iqrShare(rates)
	r.side["bench.host_calib_ms"] = median(calib)
}

// segments sizes a run: seconds times the workload's pinned rate, at least
// two so a median and a spread exist.
func segments(w *workload, seconds int, smoke bool) int {
	if smoke {
		return 2
	}
	return max(2, int(math.Round(float64(seconds)*w.perSecond)))
}

// options is the parsed command line.
type options struct {
	names   []string
	seed    uint64
	seconds int
	trace   string // "0", "1" or "both"
	smoke   bool
	outDir  string
	golden  string
	update  bool
}

// header describes the host and the invocation of a ledger document.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
	Trace      string `json:"trace"`
}

// ledger is the full document: every selected workload's result.
type ledger struct {
	Header    header             `json:"header"`
	Workloads map[string]*result `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload makes the untraced and/or traced run of one workload and
// returns the merged result.
func runWorkload(w *workload, o options, gold *goldens, log io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	segs := segments(w, o.seconds, o.smoke)
	r := &run{workload: w.name, seed: o.seed, smoke: o.smoke, gold: gold, res: res, log: log, side: map[string]float64{}}
	if o.trace != "1" {
		t := time.Now()
		if err := w.measure(r, segs); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.side["bench.wall_s"] = time.Since(t).Seconds()
		res.fillMissing(endToEnd)
	}
	if o.trace != "0" {
		t := time.Now()
		r.rec = newRecorder(w.name)
		if err := w.traced(r, segs); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := r.rec.writeChrome(path); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
		wall := time.Since(t).Seconds()
		if o.trace == "both" {
			for name, v := range r.side {
				res.set(name, v)
			}
			wall += r.side["bench.wall_s"]
		}
		res.set("bench.wall_s", wall)
		res.fillMissing(perLayer)
	}
	res.Correct = res.Failed == 0
	printTable(log, w.name, res, r.side)
	return res, nil
}

// printTable writes the human-readable view of a result to w.
func printTable(w io.Writer, name string, res *result, side map[string]float64) {
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "\n== %s  correct=%v  checks=%d  failed_share=%g\n", name, res.Correct, res.Attempted, share)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	names := make([]string, 0, len(side))
	for n := range side {
		if _, ok := res.Metrics[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s (untraced run)\n", n, side[n], units[n])
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// traceFlag takes a value (the contract passes "--trace 0" and "--trace 1"),
// so it must not be a boolean flag.
type traceFlag string

func (t *traceFlag) String() string { return string(*t) }
func (t *traceFlag) Set(v string) error {
	switch v {
	case "0", "false":
		*t = "0"
	case "1", "true":
		*t = "1"
	case "both":
		*t = "both"
	default:
		return fmt.Errorf("want 0, 1 or both")
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names multiFlag
	trace := traceFlag("both")
	fs.Var(&names, "workload", "workload to run (repeatable; default all six)")
	seed := fs.Uint64("seed", 1, "workload seed; goldens are pinned for 1 and 2")
	seconds := fs.Int("seconds", 10, "size of the timed section, in builder-host seconds")
	fs.Var(&trace, "trace", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); both")
	smoke := fs.Bool("smoke", false, "4-ary 2-cube, 2 segments, 1 repetition (what the unit test runs)")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files")
	golden := fs.String("golden", filepath.Join("bench", "golden.json"), "pinned simulated-result digests")
	update := fs.Bool("update-golden", false, "pin this run's digests into -golden instead of checking them")
	list := fs.Bool("list", false, "list the workloads and exit")
	compare := fs.Bool("compare", false, "compare two ledger files: bench -compare base.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-16s %s\n", w.name, w.why)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare base.json candidate.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintf(stderr, "bench: -seconds %d outside [1,60]\n", *seconds)
		return 2
	}
	o := options{names: names, seed: *seed, seconds: *seconds, trace: string(trace), smoke: *smoke, outDir: *outDir, golden: *golden, update: *update}
	var selected []*workload
	if len(o.names) == 0 {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, n := range o.names {
		w := findWorkload(n)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", n)
			return 2
		}
		selected = append(selected, w)
	}

	// A closed loop with one client: one driver goroutine calls each layer
	// back to back, and no workload runs more goroutines than this.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 2))

	gold, err := loadGoldens(o.golden, o.update)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	doc := ledger{
		Header: header{
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPU: cpuModel(), Commit: commit(), Seed: o.seed, Seconds: o.seconds,
			Scale: map[bool]string{false: "full", true: "smoke"}[o.smoke], Trace: o.trace,
		},
		Workloads: map[string]*result{},
	}
	fmt.Fprintf(stderr, "bench: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%d scale=%s trace=%s\n",
		doc.Header.NProc, doc.Header.GOMAXPROCS, doc.Header.GoVersion, doc.Header.CPU, doc.Header.Commit,
		o.seed, o.seconds, doc.Header.Scale, o.trace)
	failed := false
	for _, w := range selected {
		res, err := runWorkload(w, o, gold, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		doc.Workloads[w.name] = res
		failed = failed || !res.Correct
	}
	if o.update {
		if err := gold.save(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// JSON only on stdout: the bare result for a single workload (the
	// contract's last line), the ledger document otherwise.
	var out any = doc
	if len(selected) == 1 {
		out = doc.Workloads[selected[0].name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed {
		return 1
	}
	return 0
}
