package experiments

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wormnet/internal/sim"
	"wormnet/internal/stats"
)

// tinyScale keeps experiment tests fast: an 8-node ring-pair with short
// windows and few points.
func tinyScale() Scale {
	return Scale{
		Name: "tiny", K: 4, N: 2,
		Warmup: 300, Measure: 1200, Drain: 300,
		Rates:     []float64{0.1, 0.8},
		PermRates: []float64{0.1, 0.6},
		FairRate:  0.8,
		FaultRate: 0.5,
		Seed:      7,
	}
}

func TestAllAndByID(t *testing.T) {
	all := All()
	want := []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
	if len(all) != len(want) {
		t.Fatalf("got %d experiments want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d is %q want %q", i, all[i].ID, id)
		}
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("fig3"); err == nil {
		t.Error("fig3 is a hardware schematic, not a runnable experiment")
	}
	if _, err := ByID("deadlocks"); err != nil {
		t.Errorf("deadlocks experiment missing: %v", err)
	}
	if _, err := ByID("faults"); err != nil {
		t.Errorf("faults experiment missing: %v", err)
	}
	if _, err := ByID("adversarial"); err != nil {
		t.Errorf("adversarial experiment missing: %v", err)
	}
}

func TestAdversarialExperiment(t *testing.T) {
	rep := Adversarial().Run(tinyScale(), nil)
	if len(rep.Series) != 4 {
		t.Fatalf("adversarial series: %d want 4 mechanisms", len(rep.Series))
	}
	fracs := AdversaryFractions()
	for _, s := range rep.Series {
		if len(s.Points) != len(fracs) {
			t.Fatalf("series %s points: %d want %d", s.Name, len(s.Points), len(fracs))
		}
		for i, p := range s.Points {
			if p.Offered != fracs[i] {
				t.Fatalf("series %s point %d carries %v want fraction %v",
					s.Name, i, p.Offered, fracs[i])
			}
			if fracs[i] == 0 {
				if p.Classes != nil {
					t.Errorf("series %s: clean baseline has class split", s.Name)
				}
				continue
			}
			if len(p.Classes) != 2 {
				t.Fatalf("series %s at %.0f%% rogues: %d classes, want good+rogue",
					s.Name, fracs[i]*100, len(p.Classes))
			}
			if p.Classes[0].Class != "good" || p.Classes[1].Class != "rogue" {
				t.Fatalf("series %s class names: %q, %q",
					s.Name, p.Classes[0].Class, p.Classes[1].Class)
			}
			if p.ClassAccepted("good") <= 0 {
				t.Errorf("series %s at %.0f%% rogues: good class starved to zero",
					s.Name, fracs[i]*100)
			}
		}
		if c := Containment(s); c <= 0 || c > 2 {
			t.Errorf("series %s containment %.3f out of range", s.Name, c)
		}
	}
	// The limiter must contain the attack better than the unthrottled run
	// does... at minimum it must not starve the good class.
	out := rep.Render()
	for _, want := range []string{"rogue%", "good-acc", "rogue-acc", "containment="} {
		if !strings.Contains(out, want) {
			t.Errorf("adversarial renderer misses %q", want)
		}
	}
	if !strings.Contains(rep.CSV(), ",goodaccepted,rogueaccepted") {
		t.Error("CSV header misses class columns")
	}
}

func TestFaultsExperiment(t *testing.T) {
	rep := Faults().Run(tinyScale(), nil)
	if len(rep.Series) != 4 {
		t.Fatalf("faults series: %d want 4 mechanisms", len(rep.Series))
	}
	fracs := FaultFractions()
	for _, s := range rep.Series {
		if len(s.Points) != len(fracs) {
			t.Fatalf("series %s points: %d want %d", s.Name, len(s.Points), len(fracs))
		}
		healthy := s.Points[0].Result
		worst := s.Points[len(s.Points)-1].Result
		if healthy.Aborted != 0 || healthy.Dropped != 0 {
			t.Errorf("series %s: healthy point has fault counters %+v", s.Name, healthy)
		}
		if worst.Aborted == 0 {
			t.Errorf("series %s: 10%% dead links aborted nothing", s.Name)
		}
		// Graceful degradation: the network keeps moving the bulk of its
		// traffic — reduced capacity, not collapse.
		if worst.Accepted < 0.5*healthy.Accepted {
			t.Errorf("series %s collapsed: accepted %.4f -> %.4f",
				s.Name, healthy.Accepted, worst.Accepted)
		}
		for i, p := range s.Points {
			if p.Offered != fracs[i] {
				t.Fatalf("series %s point %d carries %v want fraction %v",
					s.Name, i, p.Offered, fracs[i])
			}
		}
	}
	out := rep.Render()
	for _, want := range []string{"failed%", "aborted", "retried", "dropped"} {
		if !strings.Contains(out, want) {
			t.Errorf("faults renderer misses %q", want)
		}
	}
	if !strings.Contains(rep.CSV(), ",aborted,retried,dropped") {
		t.Error("CSV header misses fault columns")
	}
}

func TestDeadlockRatesExperiment(t *testing.T) {
	rep := DeadlockRates().Run(tinyScale(), nil)
	if len(rep.Series) != 6 { // 3 patterns x {none, alo}
		t.Fatalf("series: %d", len(rep.Series))
	}
	names := map[string]bool{}
	for _, s := range rep.Series {
		names[s.Name] = true
		if len(s.Points) != 1 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
	}
	for _, want := range []string{"complement/none", "complement/alo", "perfect-shuffle/none", "bit-reversal/alo"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
	if !strings.Contains(rep.Render(), "deadlocks") {
		t.Error("render")
	}
}

func TestFig1Shape(t *testing.T) {
	rep := Fig1().Run(tinyScale(), nil)
	if len(rep.Series) != 1 || rep.Series[0].Name != "none" {
		t.Fatalf("fig1 series: %+v", rep.Series)
	}
	pts := rep.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	// Low load: accepted tracks offered; high load: latency must be larger.
	if pts[0].Result.Accepted < 0.05 {
		t.Errorf("low-load accepted %.4f", pts[0].Result.Accepted)
	}
	if pts[1].Result.AvgLatency <= pts[0].Result.AvgLatency {
		t.Errorf("latency must grow with load: %.1f vs %.1f",
			pts[1].Result.AvgLatency, pts[0].Result.AvgLatency)
	}
	out := rep.Render()
	for _, want := range []string{"fig1", "none", "plateau="} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}

func TestFig2Probe(t *testing.T) {
	rep := Fig2().Run(tinyScale(), nil)
	pts := rep.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
	for _, p := range pts {
		if p.Probe == nil || p.Probe.Total() == 0 {
			t.Fatal("probe did not record decisions")
		}
		if p.Probe.PercentEither() < p.Probe.PercentA()-1e-9 {
			t.Error("a-or-b below a")
		}
	}
	// The conditions must hold less often under higher load.
	if pts[1].Probe.PercentEither() > pts[0].Probe.PercentEither() {
		t.Errorf("ALO conditions should degrade with load: %.1f%% -> %.1f%%",
			pts[0].Probe.PercentEither(), pts[1].Probe.PercentEither())
	}
	if !strings.Contains(rep.Render(), "%rule-a") {
		t.Error("fig2 renderer")
	}
}

func TestFig4Fairness(t *testing.T) {
	rep := Fig4().Run(tinyScale(), nil)
	names := map[string]bool{}
	for _, s := range rep.Series {
		names[s.Name] = true
		if len(s.Points) != 1 || len(s.Points[0].Deviations) == 0 {
			t.Fatalf("series %s has no deviations", s.Name)
		}
		devs := s.Points[0].Deviations
		for i := 1; i < len(devs); i++ {
			if devs[i] < devs[i-1] {
				t.Fatal("deviations not sorted")
			}
		}
	}
	for _, want := range []string{"lf", "dril", "alo"} {
		if !names[want] {
			t.Errorf("fig4 missing mechanism %s", want)
		}
	}
	if names["none"] {
		t.Error("fig4 must not include the unthrottled run")
	}
	if !strings.Contains(rep.Render(), "median%") {
		t.Error("fig4 renderer")
	}
}

func TestLatencyFigureAllMechanisms(t *testing.T) {
	rep := Fig5().Run(tinyScale(), nil)
	if len(rep.Series) != 4 {
		t.Fatalf("fig5 series: %d", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s points: %d", s.Name, len(s.Points))
		}
	}
	csv := rep.CSV()
	if !strings.HasPrefix(csv, "figure,series,") {
		t.Error("CSV header")
	}
	if got := strings.Count(csv, "\n"); got != 1+4*2 {
		t.Errorf("CSV rows: %d", got)
	}
}

// TestRunAllOrderAndOnce pins runAll's contract — engine i belongs to config i,
// and exec ran once per config — at one worker and at four, and at one worker
// the dispatch order too: descending rate, ties in input order.
func TestRunAllOrderAndOnce(t *testing.T) {
	rates := []float64{0.2, 0.9, 0.5, 0.9, 0.65, 0.2, 1.1}
	cfgs := make([]sim.Config, len(rates))
	for i, r := range rates {
		cfgs[i] = tinyScale().baseConfig().WithRate(r)
		cfgs[i].Seed = uint64(100 + i) // names the config in the engine it comes back as
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		var calls []uint64
		engines := runAll(cfgs, func(cfg sim.Config) *sim.Engine {
			mu.Lock()
			calls = append(calls, cfg.Seed)
			mu.Unlock()
			e, err := sim.New(cfg)
			if err != nil {
				t.Error(err)
			}
			return e
		})
		runtime.GOMAXPROCS(prev)
		if len(engines) != len(cfgs) {
			t.Fatalf("procs=%d: %d engines for %d configs", procs, len(engines), len(cfgs))
		}
		for i, e := range engines {
			if e == nil || e.Config().Seed != cfgs[i].Seed || e.Config().Rate != rates[i] {
				t.Errorf("procs=%d: engine %d is not config %d's", procs, i, i)
			}
		}
		if procs == 1 {
			if want := []uint64{106, 101, 103, 104, 102, 100, 105}; !slices.Equal(calls, want) {
				t.Errorf("dispatch order %v, want longest first %v", calls, want)
			}
		}
		slices.Sort(calls)
		if want := []uint64{100, 101, 102, 103, 104, 105, 106}; !slices.Equal(calls, want) {
			t.Errorf("procs=%d: exec saw configs %v, want each once", procs, calls)
		}
	}
}

func TestPermutationFigureUsesPermRates(t *testing.T) {
	s := tinyScale()
	rep := Fig8().Run(s, nil)
	for _, ser := range rep.Series {
		for i, p := range ser.Points {
			if p.Offered != s.PermRates[i] {
				t.Fatalf("fig8 rate grid: got %v want %v", p.Offered, s.PermRates[i])
			}
		}
	}
}

func TestSeriesHelpers(t *testing.T) {
	ser := Series{Name: "x", Points: []Point{
		{Offered: 0.1, Result: resultWith(0.1, 0.5)},
		{Offered: 0.5, Result: resultWith(0.45, 2.0)},
		{Offered: 0.9, Result: resultWith(0.30, 9.0)},
	}}
	if got := PlateauThroughput(ser); got != 0.45 {
		t.Errorf("plateau %v", got)
	}
	if got := FinalAccepted(ser); got != 0.30 {
		t.Errorf("final %v", got)
	}
	if got := PeakDeadlockPct(ser); got != 9.0 {
		t.Errorf("peak deadlock %v", got)
	}
	if FinalAccepted(Series{}) != 0 {
		t.Error("empty series")
	}
}

func resultWith(accepted, deadlockPct float64) stats.Result {
	return stats.Result{Accepted: accepted, DeadlockPct: deadlockPct}
}

func TestScalesValidate(t *testing.T) {
	for _, s := range []Scale{Full(), Quick()} {
		cfg := s.baseConfig()
		if _, err := sim.New(cfg); err != nil {
			t.Errorf("scale %s yields invalid config: %v", s.Name, err)
		}
		if len(s.Rates) == 0 || len(s.PermRates) == 0 || s.FairRate <= 0 {
			t.Errorf("scale %s incomplete", s.Name)
		}
		// Bit-permutation patterns require power-of-two node counts.
		nodes := 1
		for i := 0; i < s.N; i++ {
			nodes *= s.K
		}
		if nodes&(nodes-1) != 0 {
			t.Errorf("scale %s: %d nodes is not a power of two", s.Name, nodes)
		}
	}
}
