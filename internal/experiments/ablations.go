package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"headroom/internal/baseline"
	"headroom/internal/optimize"
	"headroom/internal/stats"
	"headroom/internal/workload"
)

// AblationRANSAC quantifies why §II-B2 fits its latency models with robust
// regression: production experiment windows are contaminated by deployments
// and traffic shifts. It generates a pool-B-like latency curve with a block
// of deployment-inflated outliers and compares extrapolation error of plain
// OLS against RANSAC across contamination levels.
func AblationRANSAC(ctx context.Context, cfg Config) (*Result, error) {
	truth := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	res := &Result{
		ID:     "ablation-ransac",
		Title:  "Extrapolation error at 540 RPS: OLS vs RANSAC under contamination",
		Header: []string{"outlier_frac", "ols_abs_err_ms", "ransac_abs_err_ms"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 900))
	target := 540.0
	truthAt := truth.Predict(target)
	var olsWorst, ransacWorst float64
	for _, frac := range []float64{0, 0.05, 0.10, 0.20, 0.30} {
		var xs, ys []float64
		for r := 150.0; r <= 420; r += 0.5 {
			xs = append(xs, r)
			ys = append(ys, truth.Predict(r)+0.4*rng.NormFloat64())
		}
		n := int(frac * float64(len(xs)))
		for i := 0; i < n; i++ {
			j := rng.Intn(len(ys))
			ys[j] += 15 + 10*rng.Float64() // deployment-window inflation
		}
		ols, err := stats.PolyFit(xs, ys, 2)
		if err != nil {
			return nil, err
		}
		rob, err := stats.RANSAC(xs, ys, stats.RANSACConfig{Degree: 2, Seed: cfg.Seed, MaxIterations: 300})
		if err != nil {
			return nil, err
		}
		olsErr := math.Abs(ols.Predict(target) - truthAt)
		robErr := math.Abs(rob.Model.Predict(target) - truthAt)
		if olsErr > olsWorst {
			olsWorst = olsErr
		}
		if robErr > ransacWorst {
			ransacWorst = robErr
		}
		res.Rows = append(res.Rows, []string{f2(frac), f2(olsErr), f2(robErr)})
	}
	res.Metric("ols_worst_err_ms", olsWorst)
	res.Metric("ransac_worst_err_ms", ransacWorst)
	return res, nil
}

// AblationDegree tests the paper's choice of second-order polynomials
// (§III-A1: "quadratic polynomials worked... no need for more complex
// approaches"): fit degrees 1-3 on the normally observed load range and
// score extrapolation to the post-reduction range.
func AblationDegree(ctx context.Context, cfg Config) (*Result, error) {
	truth := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	rng := rand.New(rand.NewSource(cfg.Seed + 901))
	var xs, ys []float64
	for r := 150.0; r <= 400; r += 0.25 {
		xs = append(xs, r)
		ys = append(ys, truth.Predict(r)+0.4*rng.NormFloat64())
	}
	res := &Result{
		ID:     "ablation-degree",
		Title:  "Latency extrapolation error by model degree (fit 150-400, predict 540)",
		Header: []string{"degree", "abs_err_at_540_ms", "fit_R2"},
	}
	for d := 1; d <= 3; d++ {
		fit, err := stats.PolyFit(xs, ys, d)
		if err != nil {
			return nil, err
		}
		e := math.Abs(fit.Predict(540) - truth.Predict(540))
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%d", d), f2(e), f3(fit.R2)})
		res.Metric(fmt.Sprintf("deg%d_err_ms", d), e)
	}
	res.Notes = append(res.Notes,
		"degree 2 matches the truth; degree 1 misses the convexity; degree 3 inflates variance without gain")
	return res, nil
}

// AblationPartitions studies the J (load-partition count) trade-off of
// §II-B2: more partitions isolate the server-count effect better but leave
// fewer, noisier observations per fit.
func AblationPartitions(ctx context.Context, cfg Config) (*Result, error) {
	truth := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	rng := rand.New(rand.NewSource(cfg.Seed + 902))
	// History: total load varies diurnally, server count varies with
	// maintenance and experiments.
	var series []optimize.ObsPoint
	for tick := 0; tick < 2000; tick++ {
		day := float64(tick%720) / 720
		total := 100000 * (1 + 0.4*math.Cos(2*math.Pi*(day-0.55))) * (1 + 0.02*rng.NormFloat64())
		servers := 240 + float64(rng.Intn(80))
		per := total / servers
		series = append(series, optimize.ObsPoint{
			Tick: tick, Servers: servers, TotalRPS: total,
			Latency: truth.Predict(per) + 0.4*rng.NormFloat64(),
		})
	}
	res := &Result{
		ID:     "ablation-partitions",
		Title:  "Eq.(1) fit quality vs number of load partitions J",
		Header: []string{"J", "mean_points_per_partition", "mean_pred_err_ms"},
	}
	for _, j := range []int{1, 2, 4, 8, 16} {
		parts, err := optimize.PartitionPoints(series, j)
		if err != nil {
			return nil, err
		}
		var errSum float64
		var fits int
		var pts int
		for _, p := range parts {
			pts += len(p.Points)
			fit, err := optimize.LatencyVsServers(p, cfg.Seed)
			if err != nil {
				continue
			}
			// Score: predicted latency at the partition's median load and
			// a 20% reduced server count vs truth.
			medLoad := p.Points[len(p.Points)/2].TotalRPS
			n := 0.8 * meanServers(p)
			pred := fit.Model.Predict(n)
			truthVal := truth.Predict(medLoad / n)
			errSum += math.Abs(pred - truthVal)
			fits++
		}
		if fits == 0 {
			continue
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", j),
			fmt.Sprintf("%d", pts/len(parts)),
			f2(errSum / float64(fits)),
		})
		res.Metric(fmt.Sprintf("J%d_err_ms", j), errSum/float64(fits))
	}
	res.Notes = append(res.Notes,
		"J=1 mixes the traffic effect into the server-count fit; very large J starves each fit — the paper picks J with the pool owner")
	return res, nil
}

func meanServers(p optimize.Partition) float64 {
	var s float64
	for _, pt := range p.Points {
		s += pt.Servers
	}
	return s / float64(len(p.Points))
}

// AblationPlanners compares the paper's black-box plan against the two
// prior-work families of §I on the same pool-B-like system: a naive M/M/c
// queueing plan, a calibrated M/M/c plan, and a reactive autoscaler.
func AblationPlanners(ctx context.Context, cfg Config) (*Result, error) {
	// Ground truth (black box to all planners): pool B's latency quadratic
	// and a diurnal day of traffic for DC 1.
	truthLat := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	respond := func(totalRPS float64, servers int) (float64, float64) {
		per := totalRPS / float64(servers)
		return 0.028*per + 1.37, truthLat.Predict(per)
	}
	pattern := workload.Pattern{BaseRPS: 84000, PeakToTrough: 2.2, PeakHour: 13}
	offered := make([]float64, 720)
	rng := rand.New(rand.NewSource(cfg.Seed + 903))
	for i := range offered {
		offered[i] = pattern.At(float64(i)/720) * (1 + 0.03*rng.NormFloat64())
		// An unplanned 4x capacity event during the local trough (the
		// paper's second natural experiment): headroom plans absorb it,
		// reactive scaling chases it.
		if i >= 100 && i < 190 {
			offered[i] *= 4
		}
	}
	peak := stats.Max(offered)
	slo := 36.0 // baseline ~31 ms + 5 ms budget

	res := &Result{
		ID:     "ablation-planners",
		Title:  "Provisioning cost and SLO compliance by planner",
		Header: []string{"planner", "servers(peak)", "server_ticks", "slo_violations"},
	}
	addStatic := func(name string, servers int) error {
		r, err := baseline.StaticPlanCost(servers, offered, slo, respond)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, []string{
			name, fmt.Sprintf("%d", servers), fmt.Sprintf("%d", r.ServerTicks), fmt.Sprintf("%d", r.SLOViolations),
		})
		res.Metric(name+"_server_ticks", float64(r.ServerTicks))
		res.Metric(name+"_violations", float64(r.SLOViolations))
		return nil
	}

	// Black-box plan: the smallest server count whose modelled latency at
	// peak load (including the unplanned event — the headroom the paper
	// right-sizes) stays within the SLO.
	model := optimize.PoolModel{
		CPU:     stats.LinearFit{Slope: 0.028, Intercept: 1.37},
		Latency: truthLat,
	}
	blackBox := 1
	for n := 1; n <= 5000; n++ {
		fc, err := model.ForecastReduction(peak, n, n)
		if err != nil {
			return nil, err
		}
		if fc.LatencyMs <= slo && fc.CPUPct < 100 {
			blackBox = n
			break
		}
	}
	if err := addStatic("black-box", blackBox); err != nil {
		return nil, err
	}

	// Naive M/M/c: service time taken from the observed ~31 ms response
	// time — the modelling error the paper warns about (response time is
	// not service time), which overprovisions massively.
	naive, err := baseline.PlanServers(baseline.PlanConfig{
		PeakLambda: peak, ServiceTimeMs: 31, SLOMs: slo, Percentile: 95,
	})
	if err != nil {
		return nil, err
	}
	if err := addStatic("mmc-naive", naive); err != nil {
		return nil, err
	}

	// Calibrated M/M/c: service rate set to the measured per-server
	// capacity at the SLO (which already requires the black-box
	// measurement the paper advocates).
	perAtSLO := 540.0
	for r := 540.0; r < 2000; r++ {
		if truthLat.Predict(r) > slo {
			perAtSLO = r - 1
			break
		}
	}
	calibrated := int(peak/perAtSLO) + 1
	if err := addStatic("mmc-calibrated", calibrated); err != nil {
		return nil, err
	}

	// Reactive autoscaler with realistic provisioning lag.
	auto, err := baseline.SimulateAutoscaler(baseline.AutoscalerConfig{
		TargetLow: 8, TargetHigh: 14,
		MinServers: 30, MaxServers: 600,
		ProvisionDelayTicks: 10, CooldownTicks: 3,
	}, offered, blackBox, slo, respond)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		"reactive", fmt.Sprintf("%d", auto.PeakServers), fmt.Sprintf("%d", auto.ServerTicks), fmt.Sprintf("%d", auto.SLOViolations),
	})
	res.Metric("reactive_server_ticks", float64(auto.ServerTicks))
	res.Metric("reactive_violations", float64(auto.SLOViolations))
	res.Metric("blackbox_servers", float64(blackBox))
	res.Metric("mmc_naive_servers", float64(naive))
	res.Notes = append(res.Notes,
		"naive queueing models overprovision because response time is not service time; calibrating them requires the black-box measurements anyway; the reactive scaler trades violations for savings",
		"the naive plan can even violate the SLO while overprovisioned: near-idle servers sit in the elevated cold-cache latency region the paper describes")
	return res, nil
}
