package sim

import (
	"context"
	"math"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/stats"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// smallFleet is a one-pool fleet for focused engine tests.
func smallFleet(seed int64, pool PoolConfig) FleetConfig {
	return FleetConfig{
		DCs:               workload.NineRegions(),
		Pools:             []PoolConfig{pool},
		Tick:              workload.TickDuration,
		WorkloadNoiseFrac: 0.03,
		Seed:              seed,
	}
}

// tinyPool is a minimal pool in DC 1 for cheap tests.
func tinyPool(servers int) PoolConfig {
	return PoolConfig{
		Name:        "T",
		Description: "test pool",
		Servers:     map[string]int{"DC 1": servers},
		Response: ResponseParams{
			CPUSlope: 0.05, CPUIntercept: 2, CPUNoise: 0.2,
			LatQuad: [3]float64{20, -0.01, 1e-4}, LatNoise: 0.3,
			NetBytesPerReq: 1000, NetPktsPerReq: 1,
			MemPagesBase: 100, DiskBytesPerPage: 10, DiskQueueBase: 0.1,
		},
		// DC 1 carries 16% of this: ~160 RPS/server for a 10-server pool.
		Traffic:      workload.Pattern{BaseRPS: 10000, PeakToTrough: 2, PeakHour: 13},
		Availability: AvailabilityProfile{},
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  FleetConfig
	}{
		{"no DCs", FleetConfig{Pools: []PoolConfig{tinyPool(5)}}},
		{"no pools", FleetConfig{DCs: workload.NineRegions()}},
		{"duplicate pool", FleetConfig{
			DCs:   workload.NineRegions(),
			Pools: []PoolConfig{tinyPool(5), tinyPool(5)},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("want error")
			}
		})
	}

	bad := tinyPool(5)
	bad.Servers = map[string]int{"Mars": 5}
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("unknown datacenter should error")
	}
	bad = tinyPool(0)
	bad.Servers = map[string]int{"DC 1": 0}
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("zero servers should error")
	}
	bad = tinyPool(5)
	bad.Response.CPUSlope = -1
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("negative slope should error")
	}
	bad = tinyPool(5)
	bad.Availability.PlannedDailyFrac = 1.5
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("bad availability fraction should error")
	}
	bad = tinyPool(5)
	bad.Name = ""
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("empty pool name should error")
	}
	bad = tinyPool(5)
	bad.Generations = []Generation{{Name: "g", Share: -1, CPUFactor: 1}}
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("negative generation share should error")
	}
	bad = tinyPool(5)
	bad.Response.BackgroundDurTicks = 5
	bad.Response.BackgroundPeriodTicks = 2
	if _, err := New(smallFleet(1, bad)); err == nil {
		t.Error("background duration > period should error")
	}
}

func TestActionValidation(t *testing.T) {
	cfg := smallFleet(1, tinyPool(10))
	if _, err := New(cfg, Action{Pool: "nope", DC: "DC 1", Tick: 0, SetServers: 5}); err == nil {
		t.Error("unknown pool in action should error")
	}
	if _, err := New(cfg, Action{Pool: "T", DC: "DC 9", Tick: 0, SetServers: 5}); err == nil {
		t.Error("pool absent from DC should error")
	}
	if _, err := New(cfg, Action{Pool: "T", DC: "DC 1", Tick: 0, SetServers: 99}); err == nil {
		t.Error("oversize SetServers should error")
	}
	if _, err := New(cfg, Action{Pool: "T", DC: "DC 1", Tick: 0, SetServers: -1}); err == nil {
		t.Error("negative SetServers should error")
	}
}

func TestRunArgumentChecks(t *testing.T) {
	s, err := New(smallFleet(1, tinyPool(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background(), 0, func(trace.Record) error { return nil }); err == nil {
		t.Error("zero ticks should error")
	}
	if err := s.RunContext(context.Background(), 1, nil); err == nil {
		t.Error("nil emit should error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []trace.Record {
		s, err := New(smallFleet(42, tinyPool(8)))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := s.RunCollect(30)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverge at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestPoolBResponseRecoverable(t *testing.T) {
	// The black-box linear fit over simulated pool B in DC 1 must recover
	// the paper's published model cpu = 0.028*rps + 1.37 with high R².
	cfg := smallFleet(7, PoolB())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	days := 3
	if err := s.RunContext(context.Background(), days*s.TicksPerDay(), func(r trace.Record) error {
		agg.Add(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	series, err := agg.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys, lats []float64
	for _, ts := range series {
		xs = append(xs, ts.RPSPerServer)
		ys = append(ys, ts.CPUMean)
		lats = append(lats, ts.LatencyMean)
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.028) > 0.002 {
		t.Errorf("slope = %v, want 0.028 +/- 0.002", fit.Slope)
	}
	if math.Abs(fit.Intercept-1.37) > 0.6 {
		t.Errorf("intercept = %v, want 1.37 +/- 0.6", fit.Intercept)
	}
	if fit.R2 < 0.95 {
		t.Errorf("R2 = %v, want >= 0.95", fit.R2)
	}
	// Latency quadratic should match the paper's model at reference loads.
	quad, err := stats.PolyFit(xs, lats, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	for _, rps := range []float64{250, 377, 540} {
		if d := math.Abs(quad.Predict(rps) - truth.Predict(rps)); d > 1.5 {
			t.Errorf("latency at %v RPS: fit %v vs truth %v", rps, quad.Predict(rps), truth.Predict(rps))
		}
	}
	// Workload per server should sit in the paper's observed band
	// (Table II: p50 ~250, p95 ~377).
	sum := stats.Summarize(xs)
	if sum.P95 < 300 || sum.P95 > 460 {
		t.Errorf("p95 RPS/server = %v, want ~377", sum.P95)
	}
}

func TestCapacityActionRaisesPerServerLoad(t *testing.T) {
	pool := tinyPool(10)
	ticks := 100
	base, err := New(smallFleet(3, pool))
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New(smallFleet(3, pool), Action{Pool: "T", DC: "DC 1", Tick: 0, SetServers: 7})
	if err != nil {
		t.Fatal(err)
	}
	meanRPS := func(s *Simulator) (float64, int) {
		agg := metrics.NewAggregator()
		if err := s.RunContext(context.Background(), ticks, func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
			t.Fatal(err)
		}
		series, err := agg.PoolSeries("DC 1", "T")
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var servers int
		for _, ts := range series {
			sum += ts.RPSPerServer
			if ts.Servers > servers {
				servers = ts.Servers
			}
		}
		return sum / float64(len(series)), servers
	}
	rpsBase, serversBase := meanRPS(base)
	rpsRed, serversRed := meanRPS(reduced)
	if serversBase != 10 || serversRed != 7 {
		t.Errorf("server counts = %d/%d, want 10/7", serversBase, serversRed)
	}
	ratio := rpsRed / rpsBase
	if math.Abs(ratio-10.0/7) > 0.05 {
		t.Errorf("per-server load ratio = %v, want ~%v", ratio, 10.0/7)
	}
}

func TestRestoreServersAction(t *testing.T) {
	s, err := New(smallFleet(5, tinyPool(10)),
		Action{Pool: "T", DC: "DC 1", Tick: 0, SetServers: 5},
		Action{Pool: "T", DC: "DC 1", Tick: 10, RestoreServers: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	if err := s.RunContext(context.Background(), 20, func(r trace.Record) error {
		if r.Online {
			counts[r.Tick]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if counts[5] != 5 {
		t.Errorf("online at tick 5 = %d, want 5", counts[5])
	}
	if counts[15] != 10 {
		t.Errorf("online at tick 15 = %d, want 10", counts[15])
	}
}

func TestDeploymentShiftsIntercept(t *testing.T) {
	pool := tinyPool(6)
	pool.Response.CPUNoise = 0
	delta := 2.5
	s, err := New(smallFleet(9, pool),
		Action{Pool: "T", DC: "DC 1", Tick: 50, CPUInterceptDelta: delta})
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), 100, func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	series, err := agg.PoolSeries("DC 1", "T")
	if err != nil {
		t.Fatal(err)
	}
	var beforeX, beforeY, afterX, afterY []float64
	for _, ts := range series {
		if ts.Tick < 50 {
			beforeX = append(beforeX, ts.RPSPerServer)
			beforeY = append(beforeY, ts.CPUMean)
		} else {
			afterX = append(afterX, ts.RPSPerServer)
			afterY = append(afterY, ts.CPUMean)
		}
	}
	fb, err := stats.LinearRegression(beforeX, beforeY)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := stats.LinearRegression(afterX, afterY)
	if err != nil {
		t.Fatal(err)
	}
	if d := fa.Intercept - fb.Intercept; math.Abs(d-delta) > 0.5 {
		t.Errorf("intercept shift = %v, want ~%v", d, delta)
	}
}

func TestAvailabilityProfiles(t *testing.T) {
	run := func(av AvailabilityProfile) float64 {
		pool := tinyPool(20)
		pool.Availability = av
		s, err := New(smallFleet(11, pool))
		if err != nil {
			t.Fatal(err)
		}
		agg := metrics.NewAggregator()
		if err := s.RunContext(context.Background(), 2*s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
			t.Fatal(err)
		}
		sums, err := agg.ServerSummaries("DC 1", "T")
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, ss := range sums {
			total += ss.Availability
		}
		return total / float64(len(sums))
	}
	if av := run(AvailabilityProfile{}); av != 1 {
		t.Errorf("no-maintenance availability = %v, want 1", av)
	}
	if av := run(AvailabilityProfile{PlannedDailyFrac: 0.10}); math.Abs(av-0.90) > 0.02 {
		t.Errorf("10%% maintenance availability = %v, want ~0.90", av)
	}
	if av := run(AvailabilityProfile{PlannedDailyFrac: 0.02, RepurposedOffPeakFrac: 0.3}); math.Abs(av-0.68) > 0.03 {
		t.Errorf("repurposed availability = %v, want ~0.68", av)
	}
	// Guaranteed incident: probability 1, half the pool, half a day.
	av := run(AvailabilityProfile{IncidentProb: 1, IncidentFrac: 0.5, IncidentTicks: 360})
	if math.Abs(av-0.75) > 0.03 {
		t.Errorf("incident availability = %v, want ~0.75", av)
	}
}

func TestTwoGenerationsFormTwoClusters(t *testing.T) {
	s, err := New(smallFleet(13, PoolI()))
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	sums, err := agg.ServerSummaries("DC 1", "I")
	if err != nil {
		t.Fatal(err)
	}
	var oldP95, newP95 []float64
	for _, ss := range sums {
		switch ss.Generation {
		case "gen-old":
			oldP95 = append(oldP95, ss.CPU.P95)
		case "gen-new":
			newP95 = append(newP95, ss.CPU.P95)
		}
	}
	if len(oldP95) == 0 || len(newP95) == 0 {
		t.Fatal("both generations should be present")
	}
	mo, mn := stats.Mean(oldP95), stats.Mean(newP95)
	if mn >= mo*0.7 {
		t.Errorf("new-gen p95 CPU %v should be well below old-gen %v", mn, mo)
	}
}

func TestBackgroundWorkloadContaminatesCPU(t *testing.T) {
	pool := tinyPool(4)
	pool.Response.CPUNoise = 0.05
	pool.Response.BackgroundPeriodTicks = 10
	pool.Response.BackgroundDurTicks = 2
	pool.Response.BackgroundCPU = 15
	s, err := New(smallFleet(17, pool))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.RunCollect(200)
	if err != nil {
		t.Fatal(err)
	}
	// Per-server residuals from the true line: contaminated windows must
	// stand far above it roughly 20% of the time.
	var high, total int
	for _, r := range recs {
		if !r.Online {
			continue
		}
		resid := r.CPUPct - (0.05*r.RPS + 2)
		if resid > 8 {
			high++
		}
		total++
	}
	frac := float64(high) / float64(total)
	if frac < 0.12 || frac > 0.3 {
		t.Errorf("contaminated fraction = %v, want ~0.2", frac)
	}
}

func TestSimulatePoolControlledLoad(t *testing.T) {
	pool := tinyPool(5)
	offered := []float64{100, 200, 300}
	recs, err := SimulatePoolContext(context.Background(), pool, "DC 1", offered, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 15 {
		t.Fatalf("records = %d, want 15", len(recs))
	}
	// Tick 2: each server sees ~60 RPS (300/5) modulo per-server jitter.
	var sum float64
	var n int
	for _, r := range recs {
		if r.Tick == 2 {
			sum += r.RPS
			n++
		}
	}
	if n != 5 {
		t.Fatalf("tick-2 records = %d, want 5", n)
	}
	if mean := sum / float64(n); math.Abs(mean-60) > 5 {
		t.Errorf("mean per-server RPS = %v, want ~60", mean)
	}
	if _, err := SimulatePoolContext(context.Background(), pool, "DC 1", offered, 0, 1); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := SimulatePoolContext(context.Background(), pool, "DC 1", nil, 5, 1); err == nil {
		t.Error("empty load series should error")
	}
	if _, err := SimulatePoolContext(context.Background(), pool, "DC 1", []float64{-1}, 5, 1); err == nil {
		t.Error("negative load should error")
	}
}

func TestDefaultFleetValidatesAndSizes(t *testing.T) {
	cfg := DefaultFleet(1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultFleet invalid: %v", err)
	}
	n := TotalServers(cfg)
	if n < 2000 || n > 10000 {
		t.Errorf("fleet size = %d, want a few thousand servers", n)
	}
	if _, err := NamedPool(cfg, "B"); err != nil {
		t.Errorf("NamedPool(B): %v", err)
	}
	if _, err := NamedPool(cfg, "ZZ"); err == nil {
		t.Error("unknown pool should error")
	}
}

func TestDCLatencyDelta(t *testing.T) {
	pool := tinyPool(4)
	pool.Servers = map[string]int{"DC 1": 4, "DC 4": 4}
	pool.DCLatencyDelta = map[string]float64{"DC 4": 7}
	pool.Response.LatNoise = 0
	s, err := New(smallFleet(19, pool))
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), 50, func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	s1, err := agg.PoolSeries("DC 1", "T")
	if err != nil {
		t.Fatal(err)
	}
	s4, err := agg.PoolSeries("DC 4", "T")
	if err != nil {
		t.Fatal(err)
	}
	// Compare latency at a matched in-range per-server load via quadratic
	// fits (the truth model is quadratic).
	fit := func(series []metrics.TickStat) stats.Polynomial {
		var xs, ys []float64
		for _, ts := range series {
			xs = append(xs, ts.RPSPerServer)
			ys = append(ys, ts.LatencyMean)
		}
		p, err := stats.PolyFit(xs, ys, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	f1, f4 := fit(s1), fit(s4)
	// Both DCs' observed load ranges include ~330 RPS/server.
	if d := f4.Predict(330) - f1.Predict(330); math.Abs(d-7) > 1.5 {
		t.Errorf("DC 4 latency offset = %v, want ~7", d)
	}
}
