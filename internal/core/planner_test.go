package core

import (
	"context"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// runFleet simulates a small fleet for the given days and aggregates it.
func runFleet(t *testing.T, pools []sim.PoolConfig, days int, seed int64) *metrics.Aggregator {
	t.Helper()
	cfg := sim.FleetConfig{
		DCs:               workload.NineRegions(),
		Pools:             pools,
		WorkloadNoiseFrac: 0.03,
		Seed:              seed,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), days*s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestPlanEndToEnd(t *testing.T) {
	agg := runFleet(t, []sim.PoolConfig{sim.PoolB(), sim.PoolD()}, 2, 1)
	plans, err := Plan(context.Background(), agg, PlanConfig{LatencyBudgetMs: 5, Seed: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	// Pool B in DC 1 + DC 4, pool D in 6 DCs: 8 plans.
	if len(plans) != 8 {
		t.Fatalf("plans = %d, want 8", len(plans))
	}
	for _, p := range plans {
		if !p.Plannable {
			t.Errorf("pool %s@%s not plannable: %s", p.Pool, p.DC, p.Reason)
			continue
		}
		if p.SavingsFrac <= 0 || p.SavingsFrac > 1.0/3+1e-9 {
			t.Errorf("pool %s@%s savings = %v, want in (0, 1/3]", p.Pool, p.DC, p.SavingsFrac)
		}
		if p.RecommendedServers >= p.CurrentServers {
			t.Errorf("pool %s@%s recommends %d >= current %d", p.Pool, p.DC, p.RecommendedServers, p.CurrentServers)
		}
		if p.ForecastLatencyMs > p.BaselineLatencyMs+5.5 {
			t.Errorf("pool %s@%s forecast %v exceeds budget over baseline %v",
				p.Pool, p.DC, p.ForecastLatencyMs, p.BaselineLatencyMs)
		}
		if p.Groups < 1 {
			t.Errorf("pool %s@%s groups = %d", p.Pool, p.DC, p.Groups)
		}
		cpu, err := p.Validation.Counter("cpu")
		if err != nil {
			t.Fatal(err)
		}
		if !cpu.Linear {
			t.Errorf("pool %s@%s CPU metric should validate", p.Pool, p.DC)
		}
	}
	// Sorted by pool then DC.
	for i := 1; i < len(plans); i++ {
		a, b := plans[i-1], plans[i]
		if a.Pool > b.Pool || (a.Pool == b.Pool && a.DC >= b.DC) {
			t.Error("plans not sorted")
		}
	}
}

func TestPlanRefinesContaminatedPool(t *testing.T) {
	// Pool A's background log uploads contaminate its CPU metric; the
	// planner must pass it through the refinement loop and still plan it.
	agg := runFleet(t, []sim.PoolConfig{sim.PoolA()}, 2, 3)
	plans, err := Plan(context.Background(), agg, PlanConfig{Seed: 4})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var sawRefined bool
	for _, p := range plans {
		if !p.Plannable {
			t.Errorf("pool A@%s not plannable: %s", p.DC, p.Reason)
		}
		if p.Refined {
			sawRefined = true
		}
	}
	if !sawRefined {
		t.Error("pool A should require metric refinement in at least one DC")
	}
}

func TestPlanDetectsTwoGroups(t *testing.T) {
	agg := runFleet(t, []sim.PoolConfig{sim.PoolI()}, 1, 5)
	plans, err := Plan(context.Background(), agg, PlanConfig{Seed: 6})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	for _, p := range plans {
		if p.Groups != 2 {
			t.Errorf("pool I@%s groups = %d, want 2 (mixed hardware)", p.DC, p.Groups)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(context.Background(), nil, PlanConfig{}); err == nil {
		t.Error("nil aggregator should error")
	}
	if _, err := Plan(context.Background(), metrics.NewAggregator(), PlanConfig{}); err == nil {
		t.Error("empty aggregator should error")
	}
}

func TestSimPlantObserve(t *testing.T) {
	plant := &SimPlant{
		Pool: sim.PoolB(),
		DC:   workload.Datacenter{Name: "DC 1", UTCOffset: -8 * 3600 * 1e9, Weight: 0.16},
		Seed: 7,
	}
	series, err := plant.Observe(context.Background(), 300, 100)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if len(series) != 100 {
		t.Fatalf("windows = %d, want 100", len(series))
	}
	for _, ts := range series {
		if ts.Servers != 300 {
			t.Fatalf("servers = %d, want 300", ts.Servers)
		}
	}
	// Successive observations see fresh traffic.
	series2, err := plant.Observe(context.Background(), 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if series[0].TotalRPS == series2[0].TotalRPS {
		t.Error("successive Observe calls should differ (fresh noise)")
	}
	if _, err := plant.Observe(context.Background(), 0, 10); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := plant.Observe(context.Background(), 10, 0); err == nil {
		t.Error("zero ticks should error")
	}
}
