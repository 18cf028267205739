// Command benchsummary digests `go test -bench` output from the CI
// scaling-smoke job: it groups repeated runs of each benchmark, reports the
// per-benchmark minimum and median ns/op, and derives the parallel engine's workers=2-vs-workers=1
// overhead from the minima. The minimum is the statistic of record on
// shared hosts — scheduler and neighbour interference only ever add time,
// so min-of-N converges on the machine's true cost while medians wander
// with load.
//
// Usage:
//
//	benchsummary [-max-overhead pct] [-require-zero-allocs] [-base sub] [-candidate sub] <bench-output.txt>
//	benchsummary -sync-profile <metrics.prom>
//
// With -max-overhead, exits 1 if the candidate benchmark's minimum exceeds
// the base benchmark's minimum by more than pct percent. -base and
// -candidate select those two rows by name (exact match preferred, then
// substring); they default to "workers=1" and "workers=2" — the scaling
// lane's contract — and the CI obs-smoke job points them at
// BenchmarkEngineCycles vs BenchmarkEngineCyclesSpans to gate the span
// instrumentation overhead instead. With -require-zero-allocs, exits 1 if
// any BenchmarkEngineCycles* line reports nonzero allocs/op (steady-state
// engine cycles must not allocate at any worker count).
//
// -sync-profile digests a Prometheus text scrape (wormsim -http /metrics)
// instead of bench output: it prints the parallel engine's sync profile —
// mean per-shard wait at each of the four fused barriers, mean shard busy
// time, the shard imbalance and push-ring high-watermark gauges, and the
// all-time cross-shard ring push count.
//
// Exit codes: 0 ok; 1 a gate failed; 2 usage/parse error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark result line.
type sample struct {
	nsPerOp  float64
	allocsOp int64
	hasMem   bool
}

func main() {
	maxOverhead := flag.Float64("max-overhead", -1,
		"fail if min workers=2 ns/op exceeds min workers=1 by more than this percent (-1 = report only)")
	zeroAllocs := flag.Bool("require-zero-allocs", false,
		"fail if any BenchmarkEngineCycles* line reports allocs/op != 0")
	base := flag.String("base", "workers=1", "benchmark name (exact preferred, else substring) of the overhead baseline")
	candidate := flag.String("candidate", "workers=2", "benchmark name (exact preferred, else substring) gated against -base")
	syncProfile := flag.String("sync-profile", "", "digest this Prometheus text scrape's sim_barrier_wait_*/sim_shard_*/sim_ring_* series instead of bench output")
	flag.Parse()

	if *syncProfile != "" {
		os.Exit(printSyncProfile(*syncProfile))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchsummary [flags] <bench-output.txt>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer f.Close()

	groups := map[string][]sample{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, s, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if _, seen := groups[name]; !seen {
			order = append(order, name)
		}
		groups[name] = append(groups[name], s)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(groups) == 0 {
		fmt.Fprintln(os.Stderr, "benchsummary: no benchmark lines found")
		os.Exit(2)
	}

	fail := false
	mins := map[string]float64{}
	for _, name := range order {
		ss := groups[name]
		ns := make([]float64, len(ss))
		for i, s := range ss {
			ns[i] = s.nsPerOp
		}
		sort.Float64s(ns)
		mins[name] = ns[0]
		fmt.Printf("%-44s n=%d  min %.0f ns/op  median %.0f ns/op\n",
			name, len(ss), ns[0], ns[len(ns)/2])
		if *zeroAllocs && strings.HasPrefix(name, "BenchmarkEngineCycles") {
			for _, s := range ss {
				if s.hasMem && s.allocsOp != 0 {
					fmt.Printf("FAIL %s: %d allocs/op, want 0\n", name, s.allocsOp)
					fail = true
					break
				}
			}
		}
	}

	w1, ok1 := minFor(mins, order, *base)
	w2, ok2 := minFor(mins, order, *candidate)
	if ok1 && ok2 {
		overhead := (w2/w1 - 1) * 100
		fmt.Printf("%s overhead vs %s (from minima): %+.1f%%\n", *candidate, *base, overhead)
		if *maxOverhead >= 0 && overhead > *maxOverhead {
			fmt.Printf("FAIL overhead %.1f%% exceeds limit %.1f%%\n", overhead, *maxOverhead)
			fail = true
		}
	} else if *maxOverhead >= 0 {
		fmt.Fprintf(os.Stderr, "benchsummary: -max-overhead needs %q and %q rows\n", *base, *candidate)
		os.Exit(2)
	}
	if fail {
		os.Exit(1)
	}
}

// parseLine extracts one "BenchmarkFoo/bar-8  123  456 ns/op ..." line.
func parseLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", sample{}, false
	}
	// Strip the -GOMAXPROCS suffix go test appends to the name.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var s sample
	found := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsPerOp, found = v, true
		case "allocs/op":
			s.allocsOp, s.hasMem = int64(v), true
		}
	}
	return name, s, found
}

// minFor returns the min ns/op of the benchmark named sub — an exact name
// match wins (so "BenchmarkEngineCycles" does not resolve to
// "BenchmarkEngineCyclesSpans"); otherwise the first benchmark, in input
// order, whose name contains sub.
func minFor(mins map[string]float64, order []string, sub string) (float64, bool) {
	if v, ok := mins[sub]; ok {
		return v, true
	}
	for _, name := range order {
		if strings.Contains(name, sub) {
			return mins[name], true
		}
	}
	return 0, false
}

// printSyncProfile digests the sync-profile series out of a Prometheus
// text scrape: histogram means from the _sum/_count pairs, plain gauges
// and counters verbatim. Returns the process exit code.
func printSyncProfile(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer f.Close()
	series := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue // histogram buckets carry labels; only _sum/_count matter here
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		series[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	mean := func(name string) (float64, int64, bool) {
		n, ok := series[name+"_count"]
		if !ok || n == 0 {
			return 0, 0, false
		}
		return series[name+"_sum"] / n, int64(n), true
	}
	found := false
	for _, name := range []string{
		"sim_barrier_wait_b1_ns", "sim_barrier_wait_b2_ns",
		"sim_barrier_wait_b3_ns", "sim_barrier_wait_b4_ns",
		"sim_shard_busy_ns",
	} {
		if m, n, ok := mean(name); ok {
			fmt.Printf("%-28s mean %8.0f ns  (n=%d)\n", name, m, n)
			found = true
		}
	}
	for _, name := range []string{
		"sim_shard_imbalance_ratio", "sim_push_ring_high_watermark", "sim_ring_pushes_total",
	} {
		if v, ok := series[name]; ok {
			fmt.Printf("%-28s %g\n", name, v)
			found = true
		}
	}
	if !found {
		fmt.Println("no sync-profile series in scrape (serial engine, or spans/metrics off)")
	}
	return 0
}
