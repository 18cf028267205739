package sim

import (
	"testing"

	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

func TestBurstySimulationRuns(t *testing.T) {
	cfg := QuickConfig()
	cfg.Rate = 0.8
	// Synchronized phases so the aggregate timeline shows the bursts
	// (independent per-node phases average out across nodes).
	cfg.Burst = traffic.BurstProfile{OnMean: 200, OffMean: 400, Synchronized: true}
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 4000, 1000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flits delivered per 250-cycle interval, off the trace stream.
	vals := make([]float64, 22)
	e.SetListener(trace.Func(func(ev trace.Event) {
		if i := ev.Cycle / 250; ev.Kind == trace.KindDelivered && i < int64(len(vals)) {
			vals[i] += float64(ev.Len)
		}
	}))
	for i := int64(0); i < cfg.TotalCycles(); i++ {
		e.Step()
		if i%211 == 0 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
	r := e.Collector().Result()
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// The long-run accepted rate should be near the average offered rate
	// (the network is below saturation on average).
	if r.Accepted < 0.5*cfg.Rate {
		t.Errorf("accepted %.4f far below offered average %.2f", r.Accepted, cfg.Rate)
	}
	// The delivery timeline must show real variance: some interval well
	// above the mean and some well below.
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var above, below bool
	for _, v := range vals {
		if v > 1.3*mean {
			above = true
		}
		if v < 0.7*mean {
			below = true
		}
	}
	if !above || !below {
		t.Errorf("delivery series looks steady (mean %.1f): %v", mean, vals)
	}
}

func TestBurstConfigValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Burst = traffic.BurstProfile{OnMean: 100} // missing OffMean
	if _, err := New(cfg); err == nil {
		t.Error("half-specified burst profile accepted")
	}
}
