package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// driftShare is how far two sets' host calibration medians may differ before
// the comparison is flagged as taken on a drifting host.
const driftShare = 0.05

// readLedgers reads a file of one or more ledger documents (a set of
// repeated runs is their concatenation, one per line).
func readLedgers(path string) ([]ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []ledger
	dec := json.NewDecoder(f)
	for {
		var doc ledger
		err := dec.Decode(&doc)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(doc.Workloads) == 0 {
			return nil, fmt.Errorf("%s: not a ledger document (run bench without -workload to make one)", path)
		}
		docs = append(docs, doc)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no ledger document", path)
	}
	return docs, nil
}

// values collects one metric of one workload across a set of ledgers.
func values(docs []ledger, workload, name string) []float64 {
	var vs []float64
	for _, doc := range docs {
		if res := doc.Workloads[workload]; res != nil {
			if m, ok := res.Metrics[name]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// verdict applies a metric's bound to a base set and a candidate set.
// worsening is the candidate median's change in the bad direction as a share
// of the base median. A spread wider than the bound on either side leaves
// the row unresolved, unless every candidate run reads better than every
// base run.
func verdict(d metricDef, base, cand []float64) (string, float64) {
	bm, cm := median(base), median(cand)
	worsening := 0.0
	if bm != 0 {
		worsening = (cm - bm) / bm
	}
	if d.Better == "higher" {
		worsening = -worsening
	}
	if max(iqrShare(base), iqrShare(cand)) > d.Bound {
		allBetter := true
		for _, c := range cand {
			for _, b := range base {
				if (d.Better == "higher" && c <= b) || (d.Better == "lower" && c >= b) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better", worsening
		}
		return "unresolved", worsening
	}
	switch {
	case worsening > d.Bound:
		return "worse", worsening
	case worsening < -d.Bound:
		return "better", worsening
	default:
		return "same", worsening
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 if any row is worse (or any candidate run failed a check).
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readLedgers(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cand, err := readLedgers(candPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %9s  %s\n", "workload", "metric", "base", "candidate", "worse-by", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			b, c := values(base, w.name, d.Name), values(cand, w.name, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, worsening := verdict(d, b, c)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-16s %-14s %14.6g %14.6g %+8.2f%%  %s\n", w.name, d.Name, median(b), median(c), 100*worsening, v)
		}
		for _, doc := range cand {
			if res := doc.Workloads[w.name]; res != nil && res.Failed > 0 {
				worse = true
				fmt.Fprintf(stdout, "%-16s %-14s %d of %d checks failed  worse\n", w.name, "failed_share", res.Failed, res.Attempted)
			}
		}
		bc, cc := median(values(base, w.name, "bench.host_calib_ms")), median(values(cand, w.name, "bench.host_calib_ms"))
		if bc > 0 && cc > 0 && (cc > bc*(1+driftShare) || bc > cc*(1+driftShare)) {
			fmt.Fprintf(stdout, "%-16s host drift: bench.host_calib_ms %.3f -> %.3f ms; the timings of this workload compare hosts, not commits\n", w.name, bc, cc)
		}
	}
	if worse {
		return 1
	}
	return 0
}
