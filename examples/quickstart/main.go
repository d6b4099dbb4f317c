// Quickstart: simulate two micro-service pools of a global online service
// for a day, run the black-box capacity-planning pipeline over the observed
// traces, and print the right-sizing recommendation for every pool in every
// datacenter. Then build a synthetic workload from pool B's production
// history and gate a candidate change on it offline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"headroom"
)

func main() {
	ctx := context.Background()

	// The paper's two reduction-experiment subjects: pool B (query
	// modification) and pool D (traffic routing / page rendering).
	fleet := headroom.FleetConfig{
		DCs:               headroom.NineRegions(),
		Pools:             []headroom.PoolConfig{headroom.PoolB(), headroom.PoolD()},
		WorkloadNoiseFrac: 0.03,
		Seed:              1,
	}

	// The session carries the shared pipeline configuration: the fleet to
	// measure and the latency budget the planner may spend.
	s, err := headroom.New(ctx,
		headroom.WithFleet(fleet),
		headroom.WithPlanConfig(headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 2}),
	)
	if err != nil {
		log.Fatalf("session: %v", err)
	}

	// Step 0: collect a day of 120-second observation windows. The planner
	// sees only these records, never the simulator's ground truth.
	// Aggregation shards per pool across CPUs; results are identical to a
	// sequential pass.
	agg, err := s.Simulate(ctx, 1)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	// Steps 1-2: validate metrics, group servers, fit workload models, and
	// right-size every pool within the 5 ms latency budget.
	plans, err := s.Plan(ctx, agg)
	if err != nil {
		log.Fatalf("plan: %v", err)
	}

	fmt.Println("pool  dc     current -> target   savings  forecast latency")
	var cur, next int
	for _, p := range plans {
		if !p.Plannable {
			fmt.Printf("%-5s %-6s skipped: %s\n", p.Pool, p.DC, p.Reason)
			continue
		}
		cur += p.CurrentServers
		next += p.RecommendedServers
		fmt.Printf("%-5s %-6s %4d    -> %4d     %5.1f%%  %.1f ms (from %.1f ms)\n",
			p.Pool, p.DC, p.CurrentServers, p.RecommendedServers,
			100*p.SavingsFrac, p.ForecastLatencyMs, p.BaselineLatencyMs)
	}
	fmt.Printf("\nfleet: %d -> %d servers (%.0f%% savings), QoS impact within budget\n",
		cur, next, 100*(1-float64(next)/float64(cur)))

	// Step 3: a synthetic workload from pool B's production history in
	// DC 1: 12 per-server load levels reaching 25% past the observed p99,
	// for a 20-server offline pool.
	series, err := agg.PoolSeries("DC 1", "B")
	if err != nil {
		log.Fatalf("pool series: %v", err)
	}
	profile, err := headroom.BuildProfile(series, 20, 12, 0.25)
	if err != nil {
		log.Fatalf("build profile: %v", err)
	}

	// Step 4: replay it to two identical offline pools, one running a
	// candidate change, and gate the change before it ships.
	report, err := s.Validate(ctx, headroom.ValidateConfig{
		Pool:    headroom.PoolB(),
		Profile: profile,
		Seed:    3,
	}, headroom.Change{
		Name: "config-tune",
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			rp.CPUIntercept *= 0.95
			return rp
		},
	})
	if err != nil {
		log.Fatalf("validate: %v", err)
	}
	fmt.Printf("offline gate for %q over %.0f-%.0f RPS/server: acceptable %v (capacity impact %+.1f%%)\n",
		report.Change, profile.Loads[0], profile.Loads[len(profile.Loads)-1],
		report.Acceptable, 100*report.CapacityImpactFrac)
}
