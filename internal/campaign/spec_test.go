package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/message"
	"wormnet/internal/sim"
)

func testSpec() *Spec {
	s := DefaultSpec()
	s.Vary = "rate"
	s.Values = []string{"0.3", "0.6"}
	s.K, s.N = 4, 2
	s.WarmupCycles, s.MeasureCycles, s.DrainCycles = 100, 400, 100
	return &s
}

func TestDecodeSpecDefaults(t *testing.T) {
	spec, err := DecodeSpec(strings.NewReader(`{"vary":"rate","values":["0.3","0.6"]}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultSpec()
	if spec.K != def.K || spec.VCs != def.VCs || spec.Limiter != def.Limiter ||
		spec.CheckpointEvery != def.CheckpointEvery || spec.Retries != def.Retries {
		t.Fatalf("absent fields did not take defaults: %+v", spec)
	}
}

// TestDecodeSpecZeroValues pins the reason Spec has no omitempty on config
// numerics: an explicit zero that differs from the default must survive a
// round-trip, or the campaign id and every config digest drift.
func TestDecodeSpecZeroValues(t *testing.T) {
	in := `{"vary":"rate","values":["0.3"],"detection_threshold":0,"warmup_cycles":0,"checkpoint_every":0,"point_retries":0,"seed":0}`
	spec, err := DecodeSpec(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if spec.DetectionThreshold != 0 || spec.WarmupCycles != 0 ||
		spec.CheckpointEvery != 0 || spec.Retries != 0 || spec.Seed != 0 {
		t.Fatalf("explicit zeros overwritten by defaults: %+v", spec)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeSpec(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, spec) {
		t.Fatalf("round-trip drifted:\n  first  %+v\n  second %+v", spec, again)
	}
	if again.ID() != spec.ID() {
		t.Fatal("round-trip changed the campaign id")
	}
}

func TestDecodeSpecStrictness(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"vary":"rate","values":["0.3"],"warmup_cycels":5}`,
		"trailing data": `{"vary":"rate","values":["0.3"]} {"more":1}`,
		"no values":     `{"vary":"rate"}`,
		"bad vary":      `{"vary":"voltage","values":["0.3"]}`,
		"bad value":     `{"vary":"rate","values":["fast"]}`,
		"bad limiter":   `{"vary":"rate","values":["0.3"],"limiter":"magic"}`,
		"bad faults":    `{"vary":"rate","values":["0.3"],"faults":1.5}`,
		"neg retries":   `{"vary":"rate","values":["0.3"],"point_retries":-1}`,
		"huge topology": `{"vary":"rate","values":["0.3"],"k":4096,"n":6}`,
		"huge vcs":      `{"vary":"vcs","values":["100000"]}`,
		"not json":      `whatever`,
	}
	for name, in := range cases {
		if _, err := DecodeSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A spec journaled while the spec still pinned a shard count is refused
	// by name, not run at some default.
	_, err := DecodeSpec(strings.NewReader(`{"vary":"rate","values":["0.3"],"engine_workers":2}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "engine_workers"`) {
		t.Errorf("engine_workers: got %v, want an unknown-field error naming it", err)
	}
}

// TestSpecPointsMatchManualConfig proves the spec expansion and a hand-built
// sim.Config agree digest-for-digest — the property that lets coordinator
// and workers verify each other.
func TestSpecPointsMatchManualConfig(t *testing.T) {
	spec := testSpec()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	cfg := sim.DefaultConfig()
	cfg.K, cfg.N = 4, 2
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 400, 100
	f, err := baseline.LimiterByName("alo")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Limiter, cfg.LimiterName = f, "alo"
	cfg.Rate = 0.6
	want, err := sim.ConfigDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if points[1].Digest != want {
		t.Fatalf("digest mismatch:\n  spec   %s\n  manual %s", points[1].Digest, want)
	}
	// Expansion is deterministic across calls.
	again, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i].Digest != again[i].Digest {
			t.Fatalf("point %d digest unstable", i)
		}
	}
}

func TestSpecIDIdempotent(t *testing.T) {
	a, b := testSpec(), testSpec()
	if a.ID() != b.ID() {
		t.Fatal("identical specs mapped to different ids")
	}
	b.Seed = 99
	if a.ID() == b.ID() {
		t.Fatal("different specs mapped to the same id")
	}
}

func TestSpecFaultsSweep(t *testing.T) {
	spec := testSpec()
	spec.Vary = "faults"
	spec.Values = []string{"0", "0.05"}
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Digest == points[1].Digest {
		t.Fatal("fault plans did not differentiate the digests")
	}
}

// FuzzCampaignSpecDecode throws arbitrary bytes at the spec decoder. The
// invariants: no panic, no absurd allocation (bounds are enforced before
// topology walks), and every accepted spec round-trips through its own JSON
// to the same campaign id and point digests — the property idempotent
// submission and digest verification stand on.
func FuzzCampaignSpecDecode(f *testing.F) {
	f.Add([]byte(`{"vary":"rate","values":["0.1","0.3","0.5"]}`))
	f.Add([]byte(`{"vary":"vcs","values":["1","2","3"],"rate":0.5,"k":4,"n":2}`))
	f.Add([]byte(`{"vary":"faults","values":["0","0.05"],"fault_seed":3}`))
	f.Add([]byte(`{"vary":"threshold","values":["0","16","32"],"detection_threshold":0}`))
	f.Add([]byte(`{"vary":"rate","values":["0.3"],"limiter":"alo-rule-a","checkpoint_every":0,"point_retries":0}`))
	f.Add([]byte(`{"vary":"msglen","values":["8","16"],"warmup_cycles":0,"seed":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"vary":"rate","values":["0.3"],"k":4096,"n":6}`))
	f.Add([]byte(`{"vary":"rate","values":["0.3"]} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; not crashing is the point
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := DecodeSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v\njson: %s", err, out)
		}
		if spec.ID() != again.ID() {
			t.Fatalf("round-trip changed id: %s vs %s\njson: %s", spec.ID(), again.ID(), out)
		}
		a, err := spec.Points()
		if err != nil {
			t.Fatalf("accepted spec stopped expanding: %v", err)
		}
		b, err := again.Points()
		if err != nil {
			t.Fatalf("round-tripped spec stopped expanding: %v", err)
		}
		if len(a) != len(b) {
			t.Fatalf("round-trip changed point count: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Digest != b[i].Digest {
				t.Fatalf("round-trip changed point %d digest", i)
			}
		}
	})
}

// TestSpecMaximaBuild: the largest buffer and the longest message a spec
// accepts are ones the engine holds. A 2-ary 2-cube at both maxima passes the
// spec's bounds, builds, and delivers one message of maxMsgLen flits whole.
func TestSpecMaximaBuild(t *testing.T) {
	cfg := sim.QuickConfig()
	cfg.K, cfg.N = 2, 2
	cfg.BufDepth, cfg.MsgLen = maxBufDepth, maxMsgLen
	if err := boundConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("the spec's maxima do not build: %v", err)
	}
	defer e.Close()
	e.StopSources()
	m := e.Inject(0, 3, maxMsgLen)
	for m.State != message.StateDelivered {
		if e.Now() > 2*maxMsgLen {
			t.Fatalf("cycle %d: a %d-flit message is still %v", e.Now(), maxMsgLen, m.State)
		}
		e.Step()
	}
	if m.FlitsEjected != maxMsgLen {
		t.Fatalf("delivered %d of %d flits", m.FlitsEjected, maxMsgLen)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
