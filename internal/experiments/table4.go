package experiments

import (
	"context"
	"headroom/internal/measure"
	"headroom/internal/optimize"
	"headroom/internal/sim"
	"headroom/internal/validate"
)

// table4Availability gives each named pool the availability the paper's
// Table IV online-savings column implies (onlineSavings = 1 - a/0.98):
// pool B's 27% online savings implies ~71.5% availability, A's 4% ~94%, etc.
func table4Availability(name string) sim.AvailabilityProfile {
	switch name {
	case "A":
		return sim.AvailabilityProfile{PlannedDailyFrac: 0.06}
	case "B":
		return sim.AvailabilityProfile{PlannedDailyFrac: 0.095, RepurposedOffPeakFrac: 0.19}
	case "C":
		return sim.AvailabilityProfile{PlannedDailyFrac: 0.09}
	case "E":
		return sim.AvailabilityProfile{PlannedDailyFrac: 0.04}
	default: // D, F, G: best practice
		return sim.AvailabilityProfile{PlannedDailyFrac: 0.02}
	}
}

// Table4 reproduces the savings summary across the seven largest pools.
// Paper totals: 20% efficiency savings, ~5 ms average latency impact, 10%
// online savings, 30% total.
func Table4(ctx context.Context, cfg Config) (*Result, error) {
	pools := []sim.PoolConfig{
		sim.PoolA(), sim.PoolB(), sim.PoolC(), sim.PoolD(), sim.PoolE(), sim.PoolF(), sim.PoolG(),
	}
	for i := range pools {
		pools[i].Availability = table4Availability(pools[i].Name)
	}
	days := 2
	if cfg.Fast {
		days = 1
	}
	fleet := sim.FleetConfig{
		DCs:               nineRegions(),
		Pools:             pools,
		WorkloadNoiseFrac: 0.03,
		Seed:              cfg.Seed + 700,
	}
	agg, err := aggregateFleet(ctx, fleet, days*720)
	if err != nil {
		return nil, err
	}

	var obs []optimize.PoolObservation
	for _, pc := range pools {
		// Representative series: the pool's largest datacenter, the first
		// by name among equals.
		dcs := poolDCs(pc)
		bestDC, bestN := "", 0
		total := 0
		for _, dc := range dcs {
			n := pc.Servers[dc]
			total += n
			if n > bestN {
				bestDC, bestN = dc, n
			}
		}
		series, err := agg.PoolSeries(bestDC, pc.Name)
		if err != nil {
			return nil, err
		}
		// Step 1 gate: refine the workload metric when contaminated
		// (pool A's background uploads).
		rep, err := measure.ValidateWorkloadMetric(series, 0)
		if err != nil {
			return nil, err
		}
		if cc, err := rep.Counter("cpu"); err == nil && !cc.Linear {
			ref, err := measure.RefineByOutlierRemoval(series, 0)
			if err == nil && ref.After > ref.Before {
				series = ref.Clean
			}
		}
		// Availability across every datacenter the pool runs in.
		var avSum float64
		var avN int
		for _, dc := range dcs {
			sums, err := agg.ServerSummaries(dc, pc.Name)
			if err != nil {
				return nil, err
			}
			for _, ss := range sums {
				avSum += ss.Availability
				avN++
			}
		}
		obs = append(obs, optimize.PoolObservation{
			Pool:         pc.Name,
			Series:       series,
			Servers:      total,
			Availability: avSum / float64(avN),
		})
	}
	rows, err := optimize.SummarizeSavings(obs, optimize.SavingsConfig{LatencyBudgetMs: 5})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "table4",
		Title:  "Server-savings summary for the seven largest pools",
		Header: []string{"pool", "efficiency_savings", "latency_impact_ms", "online_savings", "total_savings"},
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{
			r.Pool, pct(r.EfficiencySavings), f1(r.LatencyImpactMs), pct(r.OnlineSavings), pct(r.TotalSavings),
		})
	}
	eff, lat, online, total, err := optimize.WeightedTotals(rows)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{"Savings", pct(eff), f1(lat) + "ms avg", pct(online), pct(total)})
	res.Metric("efficiency_savings (paper 0.20)", eff)
	res.Metric("avg_latency_impact_ms (paper ~5)", lat)
	res.Metric("online_savings (paper 0.10)", online)
	res.Metric("total_savings (paper 0.30)", total)
	return res, nil
}

// Fig16 reproduces the offline A/B regression case study: a change fixing a
// memory leak while accidentally introducing a high-load latency
// regression, caught by the two-pool identical-workload harness before
// deployment.
func Fig16(ctx context.Context, cfg Config) (*Result, error) {
	ticks := 30
	if cfg.Fast {
		ticks = 12
	}
	rep, err := validate.Run(ctx, validate.Config{
		Pool:          sim.PoolB(),
		Servers:       20,
		Loads:         []float64{100, 180, 260, 340, 420, 500, 580},
		TicksPerLevel: ticks,
		Seed:          cfg.Seed + 800,
	}, validate.Change{
		Name: "memory-leak-fix-v1",
		Apply: func(rp sim.ResponseParams) sim.ResponseParams {
			rp.MemPagesBase *= 0.3 // the leak is fixed
			rp.LatQuad[2] *= 2.2   // the hidden design flaw
			return rp
		},
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig16",
		Title:  "A/B latency box plot per workload level: baseline vs change",
		Header: []string{"rps_per_server", "base_p25", "base_mean", "base_p75", "chg_p25", "chg_mean", "chg_p75", "chg_mem_pages_frac"},
	}
	for _, lv := range rep.Levels {
		memFrac := 0.0
		if lv.BaselineMemPages > 0 {
			memFrac = lv.ChangeMemPages / lv.BaselineMemPages
		}
		res.Rows = append(res.Rows, []string{
			f1(lv.LoadRPSPerServer),
			f1(lv.BaselineLatency.P25), f1(lv.BaselineLatency.Mean), f1(lv.BaselineLatency.P75),
			f1(lv.ChangeLatency.P25), f1(lv.ChangeLatency.Mean), f1(lv.ChangeLatency.P75),
			f2(memFrac),
		})
	}
	res.Metric("latency_regression_detected", boolToFloat(rep.LatencyRegression))
	res.Metric("memory_leak_fixed", boolToFloat(rep.MemoryImproved))
	res.Metric("first_regression_rps", rep.FirstRegressionLoad)
	res.Metric("acceptable_for_deploy", boolToFloat(rep.Acceptable))
	res.Notes = append(res.Notes,
		"the fix works (paging down ~70%) but the latency regression under high load blocks the deployment, as in §III-C")
	return res, nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
