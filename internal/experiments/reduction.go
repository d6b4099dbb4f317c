package experiments

import (
	"context"
	"fmt"

	"headroom/internal/core"
	"headroom/internal/metrics"
	"headroom/internal/optimize"
	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/workload"
)

// reductionRun executes one of the paper's production server-reduction
// experiments against the simulator and returns the per-stage series.
type reductionRun struct {
	pool        sim.PoolConfig
	dc          string
	original    []metrics.TickStat
	reduced     []metrics.TickStat
	origServers int
	redServers  int
}

// runReduction simulates a pool, then applies a capacity reduction plus the
// confounds the paper reports (organic traffic growth during the experiment
// and, for pool B, a deployment shifting the CPU intercept).
func runReduction(ctx context.Context, pool sim.PoolConfig, dc string, reduceFrac, surgeFrac, interceptShift float64,
	origTicks, redTicks int, seed int64) (*reductionRun, error) {
	origServers := pool.Servers[dc]
	if origServers == 0 {
		return nil, fmt.Errorf("experiments: pool %s not in %s", pool.Name, dc)
	}
	redServers := int(float64(origServers) * (1 - reduceFrac))

	// Organic traffic increase during the reduced stage.
	if surgeFrac > 0 {
		ev := workload.Event{
			Name:      "organic-growth",
			StartTick: origTicks,
			EndTick:   origTicks + redTicks,
			Multipliers: map[string]float64{
				dc: 1 + surgeFrac,
			},
		}
		sched, err := workload.NewSchedule(append(pool.Schedule.Events(), ev)...)
		if err != nil {
			return nil, err
		}
		pool.Schedule = sched
	}

	actions := []sim.Action{
		{Pool: pool.Name, DC: dc, Tick: origTicks, SetServers: redServers},
	}
	if interceptShift != 0 {
		actions = append(actions, sim.Action{
			Pool: pool.Name, DC: dc, Tick: origTicks, CPUInterceptDelta: interceptShift,
		})
	}
	agg, err := poolAggregator(ctx, pool, seed, origTicks+redTicks, actions...)
	if err != nil {
		return nil, err
	}
	series, err := agg.PoolSeries(dc, pool.Name)
	if err != nil {
		return nil, err
	}
	run := &reductionRun{pool: pool, dc: dc, origServers: origServers, redServers: redServers}
	for _, ts := range series {
		if ts.Tick < origTicks {
			run.original = append(run.original, ts)
		} else {
			run.reduced = append(run.reduced, ts)
		}
	}
	return run, nil
}

func loads(series []metrics.TickStat) []float64 {
	out := make([]float64, 0, len(series))
	for _, t := range series {
		out = append(out, t.RPSPerServer)
	}
	return out
}

// stageTable builds a Table II/III-style percentile comparison.
func stageTable(run *reductionRun, reduceLabel string) *Result {
	op := stats.Percentiles(loads(run.original), 50, 75, 95)
	rp := stats.Percentiles(loads(run.reduced), 50, 75, 95)
	res := &Result{
		Header: []string{"experiment_stage", "p50_rps", "p75_rps", "p95_rps"},
		Rows: [][]string{
			{"Original Server Count", f1(op[0]), f1(op[1]), f1(op[2])},
			{reduceLabel, f1(rp[0]), f1(rp[1]), f1(rp[2])},
			{"% Change", pct(rp[0]/op[0] - 1), pct(rp[1]/op[1] - 1), pct(rp[2]/op[2] - 1)},
		},
	}
	res.Metric("orig_servers", float64(run.origServers))
	res.Metric("reduced_servers", float64(run.redServers))
	res.Metric("p95_rps_original", op[2])
	res.Metric("p95_rps_reduced", rp[2])
	res.Metric("p95_change_frac", rp[2]/op[2]-1)
	return res
}

// poolBRun is the shared pool-B experiment behind Table II and Figures 8-9:
// a 30% reduction in DC 1 coinciding with a production traffic increase and
// a deployment that shifts the CPU intercept (the paper's observed 1.37 ->
// 1.7 confound).
func poolBRun(ctx context.Context, cfg Config) (*reductionRun, error) {
	origTicks, redTicks := 5*720, 3*720 // 5 weekdays original, 3 days reduced
	if cfg.Fast {
		origTicks, redTicks = 720, 720
	}
	return runReduction(ctx, sim.PoolB(), "DC 1", 0.30, 0.05, 0.33, origTicks, redTicks, cfg.Seed+100)
}

// poolDRun backs Table III and Figures 10-11: a 10% reduction of the
// routing pool for two days, with a 10% organic load shift.
func poolDRun(ctx context.Context, cfg Config) (*reductionRun, error) {
	origTicks, redTicks := 2*720, 2*720
	if cfg.Fast {
		origTicks, redTicks = 720, 720
	}
	return runReduction(ctx, sim.PoolD(), "DC 1", 0.10, 0.10, 0, origTicks, redTicks, cfg.Seed+200)
}

// Table2 reproduces the paper's Table II (pool B, paper values: p95 376.8 ->
// 540.3, +43%).
func Table2(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolBRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := stageTable(run, "30% Server Reduction")
	res.ID = "table2"
	res.Title = "Pool B RPS/server percentiles across experiment stages"
	res.Notes = append(res.Notes,
		"paper: p50 249.5->390.4 (+56%), p75 309.3->461.1 (+49%), p95 376.8->540.3 (+43%)")
	return res, nil
}

// Table3 reproduces Table III (pool D, paper: p95 77.7 -> 94.9, +22%).
func Table3(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolDRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := stageTable(run, "10% Server Reduction")
	res.ID = "table3"
	res.Title = "Pool D RPS/server percentiles across experiment stages"
	res.Notes = append(res.Notes,
		"paper: p50 56.8->63.5 (+12%), p75 74.8->89.0 (+19%), p95 77.7->94.9 (+22%)")
	return res, nil
}

// cpuFigure builds the Figure 8/10 artifact: per-stage linear CPU fits plus
// the forecast check at the reduced stage's p95 load.
func cpuFigure(run *reductionRun) (*Result, error) {
	orig, err := optimize.FitPoolModel(run.original)
	if err != nil {
		return nil, err
	}
	red, err := optimize.FitPoolModel(run.reduced)
	if err != nil {
		return nil, err
	}
	origFit, redFit := orig.CPU, red.CPU
	redP95 := stats.Percentile(loads(run.reduced), 95)
	forecast := origFit.Predict(redP95)

	// Observed CPU near the p95 load of the reduced stage.
	observed := meanNear(run.reduced, redP95, func(t metrics.TickStat) float64 { return t.CPUMean })

	res := &Result{
		Header: []string{"stage", "fit", "R2", "N"},
		Rows: [][]string{
			{"Original Server Count", fmt.Sprintf("y = %.4g*x + %.4g", origFit.Slope, origFit.Intercept), f3(origFit.R2), fmt.Sprintf("%d", origFit.N)},
			{"Reduced Server Count", fmt.Sprintf("y = %.4g*x + %.4g", redFit.Slope, redFit.Intercept), f3(redFit.R2), fmt.Sprintf("%d", redFit.N)},
		},
	}
	res.Metric("orig_slope", origFit.Slope)
	res.Metric("orig_intercept", origFit.Intercept)
	res.Metric("orig_R2", origFit.R2)
	res.Metric("forecast_cpu_at_reduced_p95", forecast)
	res.Metric("observed_cpu_at_reduced_p95", observed)
	return res, nil
}

// latencyFigure builds the Figure 9/11 artifact: the original-stage
// quadratic latency fit and its forecast against the observed reduced-stage
// latency.
func latencyFigure(run *reductionRun) (*Result, error) {
	orig, err := optimize.FitPoolModel(run.original)
	if err != nil {
		return nil, err
	}
	quad := orig.Latency
	redP95 := stats.Percentile(loads(run.reduced), 95)
	forecast := quad.Predict(redP95)
	observed := meanNear(run.reduced, redP95, func(t metrics.TickStat) float64 { return t.LatencyMean })

	res := &Result{
		Header: []string{"model", "value"},
		Rows: [][]string{
			{"quadratic fit", quad.String()},
			{"fit R2", f3(quad.R2)},
			{"reduced-stage p95 RPS/server", f1(redP95)},
			{"forecast latency (ms)", f2(forecast)},
			{"observed latency (ms)", f2(observed)},
		},
	}
	res.Metric("a2", quad.Coeffs[2])
	res.Metric("a1", quad.Coeffs[1])
	res.Metric("a0", quad.Coeffs[0])
	res.Metric("forecast_latency_ms", forecast)
	res.Metric("observed_latency_ms", observed)
	res.Metric("forecast_abs_error_ms", abs(forecast-observed))
	return res, nil
}

// nearTol is how close to a reference load, relative to it, a window's load
// must be for meanNear to average it.
const nearTol = 0.05

// meanNear averages get(t) over windows whose load is within nearTol of ref.
func meanNear(series []metrics.TickStat, ref float64, get func(metrics.TickStat) float64) float64 {
	var sum float64
	var n int
	for _, t := range series {
		if t.Servers == 0 {
			continue
		}
		if abs(t.RPSPerServer-ref) <= nearTol*ref {
			sum += get(t)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Fig8 reproduces Figure 8. Paper: original fit y = 0.028x + 1.37
// (R2 0.984), forecast 16.5% CPU at 540 RPS, measured 17.4% (the intercept
// shifted with a deployment).
func Fig8(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolBRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res, err := cpuFigure(run)
	if err != nil {
		return nil, err
	}
	res.ID = "fig8"
	res.Title = "Pool B %CPU vs RPS/server, original vs 30% reduction"
	res.Notes = append(res.Notes,
		"paper: y = 0.028x + 1.37 (R2 0.984); reduced stage intercept rose to 1.7 with a deployment — the same confound is injected here")
	return res, nil
}

// Fig9 reproduces Figure 9. Paper: quadratic 4.028e-5x^2 - 0.031x + 36.68,
// forecast 31.5 ms vs measured 30.9 ms.
func Fig9(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolBRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res, err := latencyFigure(run)
	if err != nil {
		return nil, err
	}
	res.ID = "fig9"
	res.Title = "Pool B p95 latency vs RPS/server with quadratic forecast"
	res.Notes = append(res.Notes, "paper: forecast 31.5 ms, measured 30.9 ms")
	return res, nil
}

// Fig10 reproduces Figure 10. Paper: y = 0.0916x + 5.006 (R2 0.940),
// forecast 13.7% at 94.9 RPS, measured 13.3%.
func Fig10(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolDRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res, err := cpuFigure(run)
	if err != nil {
		return nil, err
	}
	res.ID = "fig10"
	res.Title = "Pool D %CPU vs RPS/server, original vs 10% reduction"
	res.Notes = append(res.Notes, "paper: y = 0.0916x + 5.006 (R2 0.940); forecast 13.7%, observed 13.3%")
	return res, nil
}

// Fig11 reproduces Figure 11 and the DC 4 replication. Paper: quadratic
// 4.66e-3x^2 - 0.80x + 86.50 (R2 0.90), forecast 52.6 ms vs observed
// 50.7 ms; the DC 4 replication shifted 59 -> 61 ms at +29% RPS.
func Fig11(ctx context.Context, cfg Config) (*Result, error) {
	run, err := poolDRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res, err := latencyFigure(run)
	if err != nil {
		return nil, err
	}
	res.ID = "fig11"
	res.Title = "Pool D p95 latency vs RPS/server with quadratic forecast"
	res.Notes = append(res.Notes, "paper: forecast 52.6 ms, observed 50.7 ms")

	// DC 4 replication with a 29% load increase.
	origTicks, redTicks := 2*720, 2*720
	if cfg.Fast {
		origTicks, redTicks = 720, 720
	}
	rep, err := runReduction(ctx, sim.PoolD(), "DC 4", 0.10, 0.17, 0, origTicks, redTicks, cfg.Seed+300)
	if err != nil {
		return nil, err
	}
	repModel, err := optimize.FitPoolModel(rep.original)
	if err != nil {
		return nil, err
	}
	repQuad := repModel.Latency
	repP95 := stats.Percentile(loads(rep.reduced), 95)
	origP95 := stats.Percentile(loads(rep.original), 95)
	res.Metric("dc4_forecast_latency_ms", repQuad.Predict(repP95))
	res.Metric("dc4_observed_latency_ms",
		meanNear(rep.reduced, repP95, func(t metrics.TickStat) float64 { return t.LatencyMean }))
	res.Metric("dc4_baseline_latency_ms", repQuad.Predict(origP95))
	res.Metric("dc4_rps_increase_frac", repP95/origP95-1)
	res.Notes = append(res.Notes, "paper DC 4 replication: 59 -> 61 ms after +29% RPS/server")
	return res, nil
}

// Fig7 reproduces the RSM iteration chart: successive reductions raise
// latency until the 14 ms QoS limit is reached.
func Fig7(ctx context.Context, cfg Config) (*Result, error) {
	// A low-latency pool tuned so the QoS limit of 14 ms binds, like the
	// paper's Figure 7 subject.
	pool := sim.PoolConfig{
		Name:        "R",
		Description: "RSM experiment pool",
		Servers:     map[string]int{"DC 1": 200},
		Response: sim.ResponseParams{
			CPUSlope: 0.03, CPUIntercept: 2, CPUNoise: 0.3,
			LatQuad: [3]float64{7, 0.001, 2e-5}, LatNoise: 0.25,
			NetBytesPerReq: 10000, NetPktsPerReq: 10,
			MemPagesBase: 4000, DiskBytesPerPage: 1800, DiskQueueBase: 0.4,
		},
		Traffic: workload.Pattern{BaseRPS: 312500, PeakToTrough: 1.8, PeakHour: 13},
	}
	observeTicks := 720
	if cfg.Fast {
		observeTicks = 180
	}
	plant := &core.SimPlant{
		Pool:      pool,
		DC:        workload.Datacenter{Name: "DC 1", Weight: 0.16}, // the DC 1 share of global traffic
		NoiseFrac: 0.04,
		Seed:      cfg.Seed + 400,
	}
	rsm, err := optimize.RunRSM(ctx, plant, optimize.RSMConfig{
		InitialServers: 200,
		QoSLimitMs:     14,
		StepFrac:       0.10,
		ObserveTicks:   observeTicks,
		MaxIterations:  12,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig7",
		Title:  "RSM iterations toward the 14 ms QoS limit",
		Header: []string{"iteration", "servers", "observed_latency_ms", "forecast_next_ms", "next_servers"},
	}
	for i, it := range rsm.Iterations {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", it.Servers),
			f2(it.ObservedLatencyMs), f2(it.ForecastNextMs), fmt.Sprintf("%d", it.NextServers),
		})
	}
	res.Metric("iterations", float64(len(rsm.Iterations)))
	res.Metric("final_servers", float64(rsm.FinalServers))
	res.Metric("savings_frac", rsm.SavingsFrac)
	res.Notes = append(res.Notes, "stopped: "+rsm.Stopped)
	return res, nil
}
