package headroom_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"headroom"
	"headroom/internal/sim"
	"headroom/internal/trace"
)

// TestFullMethodologyPipeline walks the paper's complete loop on pool B
// through the Session API: measure production, plan a reduction, build a
// synthetic workload, gate a change offline on it, run the reduction, and
// confirm the forecast QoS held.
func TestFullMethodologyPipeline(t *testing.T) {
	ctx := context.Background()
	pool := sim.PoolB()
	fleet := headroom.FleetConfig{
		DCs:               headroom.NineRegions(),
		Pools:             []headroom.PoolConfig{pool},
		WorkloadNoiseFrac: 0.03,
		Seed:              42,
	}
	s, err := headroom.New(ctx,
		headroom.WithFleet(fleet),
		headroom.WithPlanConfig(headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 43}),
	)
	if err != nil {
		t.Fatalf("session: %v", err)
	}

	// --- Step 1-2: measure production and plan. ---
	agg, err := s.Simulate(ctx, 2)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	plans, err := s.Plan(ctx, agg)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	var dc1 headroom.PoolPlan
	for _, p := range plans {
		if p.DC == "DC 1" {
			dc1 = p
		}
	}
	if !dc1.Plannable || dc1.SavingsFrac <= 0.2 {
		t.Fatalf("DC 1 plan unusable: %+v", dc1)
	}

	// --- Step 3: build a synthetic workload from production history. ---
	prodSeries, err := agg.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := headroom.BuildProfile(prodSeries, 20, 12, 0.25)
	if err != nil {
		t.Fatalf("build profile: %v", err)
	}

	// --- Step 4: replay it to two offline pools and gate a benign change
	// before the reduction. ---
	rep, err := s.Validate(ctx, headroom.ValidateConfig{
		Pool: pool, Profile: profile, TicksPerLevel: 20, Seed: 44,
	}, headroom.Change{Name: "config-tune", Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
		rp.CPUIntercept *= 0.95
		return rp
	}})
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !rep.Acceptable {
		t.Fatal("benign change should pass the gate")
	}
	var prodTop float64
	for _, ts := range prodSeries {
		prodTop = max(prodTop, ts.RPSPerServer)
	}
	if top := rep.Levels[len(rep.Levels)-1].LoadRPSPerServer; top < prodTop {
		t.Errorf("synthetic sweep tops out at %v rps/server, below production's %v", top, prodTop)
	}

	// --- Execute the planned reduction and check the forecast held. ---
	redAgg, err := s.Simulate(ctx, 2, headroom.Action{
		Pool: "B", DC: "DC 1", Tick: 0, SetServers: dc1.RecommendedServers,
	})
	if err != nil {
		t.Fatalf("reduced simulate: %v", err)
	}
	redSeries, err := redAgg.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	var lat []float64
	for _, ts := range redSeries {
		if ts.Servers > 0 {
			lat = append(lat, ts.LatencyMean)
		}
	}
	observedP95 := percentileOf(lat, 95)
	if math.Abs(observedP95-dc1.ForecastLatencyMs) > 2 {
		t.Errorf("observed p95 latency %v vs forecast %v: gap too large",
			observedP95, dc1.ForecastLatencyMs)
	}

	// --- The reduced pool keeps its latency objective: p95 within 5 ms of
	// the pre-reduction baseline. ---
	if observedP95 > dc1.BaselineLatencyMs+5 {
		t.Errorf("reduced pool p95 latency %v exceeds baseline %v + 5 ms", observedP95, dc1.BaselineLatencyMs)
	}
}

// TestTraceRoundTripThroughPipeline checks the capsim->capplan file path:
// records survive serialisation, and replaying the decoded trace through a
// ReplaySource-backed session gives the planner identical data.
func TestTraceRoundTripThroughPipeline(t *testing.T) {
	ctx := context.Background()
	fleet := headroom.FleetConfig{
		DCs:   headroom.NineRegions(),
		Pools: []headroom.PoolConfig{headroom.PoolB()},
		Seed:  60,
	}
	writer, err := headroom.New(ctx, headroom.WithFleet(fleet))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewCSVWriter(&buf)
	if err := writer.Stream(ctx, headroom.NewSimSource(fleet, 1), headroom.EachRecord(func(r headroom.Record) error {
		return w.Write(r)
	})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := headroom.New(ctx,
		headroom.WithSource(headroom.NewReplaySource(recs)),
		headroom.WithPlanConfig(headroom.PlanConfig{Seed: 61}),
	)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := reader.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := reader.Plan(ctx, agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	for _, p := range plans {
		if !p.Plannable {
			t.Errorf("pool %s@%s not plannable after round trip: %s", p.Pool, p.DC, p.Reason)
		}
	}
}

func percentileOf(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	if len(cp) == 0 {
		return math.NaN()
	}
	// simple nearest-rank percentile for test use
	n := len(cp)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	idx := int(p / 100 * float64(n-1))
	return cp[idx]
}
