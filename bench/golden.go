package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// digest is the simulated outcome of a run as named exact numbers: message
// counts, accepted traffic, latency mean and deviation, explorer counters.
// The simulator is deterministic, so two commits that simulate the same
// thing produce equal digests; floats are compared bit for bit.
type digest map[string]float64

func (d digest) equal(o digest) bool {
	if len(d) != len(o) {
		return false
	}
	for k, v := range d {
		if w, ok := o[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// diff names the first few entries on which d and o disagree.
func (d digest) diff(o digest) string {
	keys := map[string]bool{}
	for k := range d {
		keys[k] = true
	}
	for k := range o {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		if d[k] != o[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	out := ""
	for i, k := range names {
		if i == 4 {
			out += fmt.Sprintf(" … (%d entries differ)", len(names))
			break
		}
		out += fmt.Sprintf(" %s: want %v got %v;", k, d[k], o[k])
	}
	return out
}

// goldens are the pinned digests, keyed "<scale>/<workload>/seed<n>/ops<n>":
// a run whose seed or size has no entry falls back to self-consistency
// (determinism across repetitions, workers=2 against serial, invariants).
type goldens struct {
	path    string
	update  bool
	Entries map[string]digest
}

func loadGoldens(path string, update bool) (*goldens, error) {
	g := &goldens{path: path, update: update, Entries: map[string]digest{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && update {
		return g, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read goldens: %w", err)
	}
	if err := json.Unmarshal(data, &g.Entries); err != nil {
		return nil, fmt.Errorf("parse goldens %s: %w", path, err)
	}
	return g, nil
}

func (g *goldens) save() error {
	data, err := json.MarshalIndent(g.Entries, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(g.path, append(data, '\n'), 0o644)
}

// checkGolden compares got with the pinned digest of this workload, seed and
// size, or pins it under -update-golden.
func (r *run) checkGolden(ops int64, got digest) {
	if r.gold.update {
		r.gold.Entries[r.goldenKey(r.workload, ops)] = got
		return
	}
	r.checkGoldenOf(r.workload, ops, got)
}

func (r *run) goldenKey(workload string, ops int64) string {
	scale := "full"
	if r.smoke {
		scale = "smoke"
	}
	return fmt.Sprintf("%s/%s/seed%d/ops%d", scale, workload, r.seed, ops)
}

// checkGoldenOf compares got with the digest pinned for the named workload
// at this run's seed and size; knee-workers2 uses it to hold itself to
// knee-serial's entry.
func (r *run) checkGoldenOf(workload string, ops int64, got digest) {
	key := r.goldenKey(workload, ops)
	want, ok := r.gold.Entries[key]
	if !ok {
		fmt.Fprintf(r.log, "bench: %s: no golden for %s; self-consistency checks only\n", r.workload, key)
		return
	}
	r.check(want.equal(got), "simulated results differ from golden %s:%s", key, want.diff(got))
}
