package headroom_test

import (
	"context"
	"testing"

	"headroom"
)

func TestFacadeEndToEnd(t *testing.T) {
	ctx := context.Background()
	cfg := headroom.FleetConfig{
		DCs:               headroom.NineRegions(),
		Pools:             []headroom.PoolConfig{headroom.PoolB()},
		WorkloadNoiseFrac: 0.03,
		Seed:              1,
	}
	s, err := headroom.New(ctx,
		headroom.WithFleet(cfg),
		headroom.WithPlanConfig(headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 2}),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	agg, err := s.Simulate(ctx, 1)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	plans, err := s.Plan(ctx, agg)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(plans) != 2 { // pool B runs in two datacenters
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	for _, p := range plans {
		if !p.Plannable {
			t.Errorf("pool %s@%s not plannable: %s", p.Pool, p.DC, p.Reason)
		}
		if p.SavingsFrac <= 0 {
			t.Errorf("pool %s@%s no savings", p.Pool, p.DC)
		}
	}
}

func TestFacadeStream(t *testing.T) {
	ctx := context.Background()
	cfg := headroom.FleetConfig{
		DCs:   headroom.NineRegions(),
		Pools: []headroom.PoolConfig{headroom.PoolD()},
		Seed:  3,
	}
	s, err := headroom.New(ctx, headroom.WithFleet(cfg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var n int
	if err := s.Stream(ctx, headroom.NewSimSource(cfg, 1), headroom.EachRecord(func(headroom.Record) error {
		n++
		return nil
	})); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	// 960 pool-D servers x 720 windows.
	if n != 960*720 {
		t.Errorf("records = %d, want %d", n, 960*720)
	}
}

func TestFacadeValidate(t *testing.T) {
	ctx := context.Background()
	s, err := headroom.New(ctx)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Validate(ctx, headroom.ValidateConfig{
		Pool:          headroom.PoolB(),
		Servers:       10,
		Loads:         []float64{100, 300, 500},
		TicksPerLevel: 10,
		Seed:          4,
	}, headroom.Change{
		Name: "noop",
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			return rp
		},
	})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.LatencyRegression {
		t.Error("no-op change should not regress")
	}
	if !rep.Acceptable {
		t.Error("no-op change should be acceptable")
	}
}

func TestFacadeRSM(t *testing.T) {
	ctx := context.Background()
	plant := &headroom.SimPlant{
		Pool: headroom.PoolB(),
		DC:   headroom.NineRegions()[0],
		Seed: 5,
	}
	s, err := headroom.New(ctx)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.RunRSM(ctx, plant, headroom.RSMConfig{
		InitialServers: 300,
		QoSLimitMs:     36,
		StepFrac:       0.15,
		ObserveTicks:   120,
		MaxIterations:  6,
		Seed:           6,
	})
	if err != nil {
		t.Fatalf("RunRSM: %v", err)
	}
	if res.FinalServers >= 300 {
		t.Errorf("no reduction: %d", res.FinalServers)
	}
	if res.SavingsFrac <= 0 {
		t.Errorf("savings = %v", res.SavingsFrac)
	}
}

func TestFacadeNamedPool(t *testing.T) {
	cfg := headroom.DefaultFleet(1)
	p, err := headroom.NamedPool(cfg, "B")
	if err != nil {
		t.Fatalf("NamedPool(B): %v", err)
	}
	if p.Name != "B" {
		t.Errorf("pool = %q, want B", p.Name)
	}
	if _, err := headroom.NamedPool(cfg, "nope"); err == nil {
		t.Error("NamedPool(nope) should fail")
	}
}
