// Regression gate: reproduce the paper's §III-C offline validation case
// study. A change fixes a memory leak but hides a design flaw that inflates
// latency under high workload. Two identical offline pools run a precisely
// identical synthetic workload sweep — one with the change — and the
// comparison blocks the deployment.
//
//	go run ./examples/regressiongate
package main

import (
	"context"
	"fmt"
	"log"

	"headroom"
)

func main() {
	ctx := context.Background()

	s, err := headroom.New(ctx)
	if err != nil {
		log.Fatalf("session: %v", err)
	}

	report, err := s.Validate(ctx, headroom.ValidateConfig{
		Pool:          headroom.PoolB(),
		Profile:       headroom.Profile{Loads: []float64{100, 180, 260, 340, 420, 500, 580}, Servers: 20},
		TicksPerLevel: 30,
		Seed:          11,
	}, headroom.Change{
		Name: "memory-leak-fix-v1",
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			rp.MemPagesBase *= 0.3 // the leak is fixed...
			rp.LatQuad[2] *= 2.2   // ...but a new flaw bites under load
			return rp
		},
	})
	if err != nil {
		log.Fatalf("validate: %v", err)
	}

	fmt.Println("rps/server   baseline_lat  change_lat   change_paging")
	for _, lv := range report.Levels {
		fmt.Printf("%8.0f     %8.1f ms   %8.1f ms   %5.0f%% of baseline\n",
			lv.LoadRPSPerServer, lv.BaselineLatency.Mean, lv.ChangeLatency.Mean,
			100*lv.ChangeMemPages/lv.BaselineMemPages)
	}
	fmt.Println()
	fmt.Printf("memory leak fixed:     %v\n", report.MemoryImproved)
	fmt.Printf("latency regression:    %v (first at %.0f RPS/server)\n",
		report.LatencyRegression, report.FirstRegressionLoad)
	fmt.Printf("capacity impact:       %+.1f%%\n", 100*report.CapacityImpactFrac)
	fmt.Printf("acceptable to deploy:  %v\n", report.Acceptable)
}
