package headroom_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
		Profile:       headroom.Profile{Loads: []float64{100, 300, 500}, Servers: 10},
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

// TestValidateFig16Pinned holds Session.Validate on the Fig16 configuration
// (the fast run's ticks, seed 1 + 800) to the sha256 of its JSON report,
// every float at full precision; the fig16 golden rounds to one decimal.
// The digest was captured before the offline replay took a synthetic
// workload profile as its one input.
func TestValidateFig16Pinned(t *testing.T) {
	ctx := context.Background()
	s, err := headroom.New(ctx)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Validate(ctx, headroom.ValidateConfig{
		Pool:          headroom.PoolB(),
		Profile:       headroom.Profile{Loads: []float64{100, 180, 260, 340, 420, 500, 580}, Servers: 20},
		TicksPerLevel: 12,
		Seed:          801,
	}, headroom.Change{
		Name: "memory-leak-fix-v1",
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			rp.MemPagesBase *= 0.3
			rp.LatQuad[2] *= 2.2
			return rp
		},
	})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4f5e5f72a247d808c95ef64b9ef712402e3fb62bdd6f3137050b9ca7e3aa902c"
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("report sha256 %s, pinned %s", got, want)
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
