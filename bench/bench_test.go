package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json at the repository root.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// bench runs the command in-process and returns its exit code and stdout.
func bench(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	if t.Failed() || testing.Verbose() {
		t.Logf("bench %s\n%s", strings.Join(args, " "), stderr.String())
	}
	return code, stdout.Bytes()
}

// TestCatalogueMatchesContract holds the catalogue in catalog.go and the
// workload table in main.go to BENCHMARK.json, name by name.
func TestCatalogueMatchesContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the catalogue %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, d)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the catalogue %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for n := range units {
		if !name.MatchString(n) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
	}
}

// TestSmokeLedger runs all six workloads at the smoke scale, untraced and
// traced, and checks the ledger: every workload, every metric exactly once
// with its unit, no failed check, and trace files scripts/tracecheck accepts.
func TestSmokeLedger(t *testing.T) {
	out := t.TempDir()
	code, stdout := bench(t, "-smoke", "-seed", "1", "-out", out, "-golden", "golden.json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc ledger
	if err := json.Unmarshal(stdout, &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout)
	}
	if doc.Header.GOMAXPROCS < 1 || doc.Header.GOMAXPROCS > 2 || doc.Header.GoVersion == "" || doc.Header.Seed != 1 {
		t.Errorf("header incomplete: %+v", doc.Header)
	}
	c := readContract(t)
	for _, w := range c.Workloads {
		res := doc.Workloads[w.Name]
		if res == nil {
			t.Errorf("workload %s missing from the ledger", w.Name)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		want := map[string]string{}
		for _, m := range c.EndToEnd {
			want[m.Name] = m.Unit
		}
		for _, m := range c.PerLayer {
			want[m.Name] = m.Unit
		}
		for n, m := range res.Metrics {
			if want[n] != m.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, n, m.Unit, want[n])
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("%s: metric %s not emitted", w.Name, n)
		}
		for _, m := range c.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		trace := filepath.Join(out, "trace-"+w.Name+"-seed1.json")
		cmd := exec.Command("go", "run", "wormnet/scripts/tracecheck", "-min-events", "2", trace)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s: tracecheck: %v\n%s", w.Name, err, msg)
		}
	}
	if len(doc.Workloads) != len(c.Workloads) {
		t.Errorf("ledger has %d workloads, BENCHMARK.json %d", len(doc.Workloads), len(c.Workloads))
	}
	if a, b := doc.Workloads["knee-serial"], doc.Workloads["knee-workers2"]; a != nil && b != nil {
		if a.Metrics["ops_done"] != b.Metrics["ops_done"] {
			t.Errorf("knee-serial and knee-workers2 ran different work: %v vs %v", a.Metrics["ops_done"], b.Metrics["ops_done"])
		}
	}
}

// TestContractLine runs one workload the way the contract does and checks
// the shape of the line: exactly four keys, and exactly the end-to-end
// metrics untraced, exactly the per-layer metrics traced.
func TestContractLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		code, stdout := bench(t, "--workload", "mc-exhaust", "--seed", "3", "--seconds", "1", "--trace", trace,
			"-smoke", "-out", t.TempDir(), "-golden", "golden.json")
		if code != 0 {
			t.Fatalf("trace %s: exit code %d", trace, code)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(stdout, &line); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, stdout)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Errorf("trace %s: keys are not exactly correct/attempted/failed/metrics: %s", trace, stdout)
		}
		var ms map[string]metric
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(ms), len(defs))
		}
		for _, d := range defs {
			if m, ok := ms[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or has unit %q", trace, d.Name, m.Unit)
			}
		}
	}
}

// TestWrongGoldenFails plants a wrong golden and requires failed checks and
// a non-zero exit.
func TestWrongGoldenFails(t *testing.T) {
	gold, err := loadGoldens("golden.json", false)
	if err != nil {
		t.Fatal(err)
	}
	planted := 0
	for key, d := range gold.Entries {
		if strings.HasPrefix(key, "smoke/knee-serial/seed1/") {
			d["delivered"]++
			planted++
		}
	}
	if planted != 1 {
		t.Fatalf("found %d smoke goldens for knee-serial seed 1, want 1", planted)
	}
	gold.path = filepath.Join(t.TempDir(), "wrong.json")
	if err := gold.save(); err != nil {
		t.Fatal(err)
	}
	code, stdout := bench(t, "-smoke", "-workload", "knee-serial", "-trace", "0", "-out", t.TempDir(), "-golden", gold.path)
	var res result
	if err := json.Unmarshal(stdout, &res); err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if code == 0 || res.Failed == 0 || res.Correct {
		t.Errorf("wrong golden went unnoticed: exit %d, failed %d of %d, correct=%v", code, res.Failed, res.Attempted, res.Correct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops, calib float64, failed int) ledger {
		res := &result{Correct: failed == 0, Attempted: 3, Failed: failed, Metrics: map[string]metric{}}
		res.set("setup_s", 1)
		res.set("ops_per_s", ops)
		res.set("allocs_per_op", 2)
		res.set("heap_live_mb", 4)
		res.set("ops_done", 1000)
		res.set("bench.host_calib_ms", calib)
		return ledger{Workloads: map[string]*result{"knee-serial": res}}
	}
	write := func(docs ...ledger) string {
		var buf bytes.Buffer
		for _, d := range docs {
			line, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(mk(1000, 5, 0), mk(1010, 5, 0), mk(990, 5, 0))
	for _, tc := range []struct {
		name string
		cand string
		code int
		want string
	}{
		{"same", write(mk(1005, 5, 0)), 0, "same"},
		{"worse", write(mk(700, 5, 0)), 1, "worse"},
		{"better", write(mk(1400, 5, 0)), 0, "better"},
		{"unresolved", write(mk(400, 5, 0), mk(1000, 5, 0), mk(1600, 5, 0), mk(700, 5, 0)), 0, "unresolved"},
		{"failed checks", write(mk(1000, 5, 1)), 1, "checks failed"},
		{"host drift", write(mk(1000, 6, 0)), 0, "host drift"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareFiles(base, tc.cand, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", tc.name, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
