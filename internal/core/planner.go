// Package core orchestrates the first two steps of the capacity-planning
// methodology over a fleet trace: Measure (validate metrics, group servers)
// and Optimize (fit workload→QoS models, size each pool). It is the paper's
// primary contribution assembled as a pipeline; the steps themselves live in
// internal/measure and internal/optimize. The other two steps, Model
// (internal/synth) and Validate (internal/validate), run offline pools
// rather than read a fleet trace.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"headroom/internal/measure"
	"headroom/internal/metrics"
	"headroom/internal/optimize"
	"headroom/internal/sim"
	"headroom/internal/workload"
)

// PlanConfig controls a planning pass.
type PlanConfig struct {
	// LatencyBudgetMs is the acceptable latency increase over each pool's
	// current p95 operating point (the paper accepted ~5 ms on average).
	LatencyBudgetMs float64
	// MaxGroups bounds server-group detection per pool (default 4).
	MaxGroups int
	// MaxReductionFrac caps per-pool savings (default 1/3, the paper's
	// practical limit).
	MaxReductionFrac float64
	// Seed drives clustering and robust fits.
	Seed int64
}

func (c PlanConfig) withDefaults() PlanConfig {
	if c.LatencyBudgetMs <= 0 {
		c.LatencyBudgetMs = 5
	}
	if c.MaxGroups <= 0 {
		c.MaxGroups = 4
	}
	if c.MaxReductionFrac <= 0 {
		c.MaxReductionFrac = 1.0 / 3
	}
	return c
}

// PoolPlan is the planning outcome for one pool in one datacenter.
type PoolPlan struct {
	DC   string
	Pool string
	// Validation is the Step 1 metric-validation report.
	Validation measure.ValidationReport
	// Refined is true when the workload metric needed the outlier-removal
	// refinement loop before it validated.
	Refined bool
	// Groups is the number of capacity-planning server groups detected.
	Groups int
	// Model is the fitted workload model (Step 2).
	Model optimize.PoolModel
	// CurrentServers is the observed active server count at the p95
	// operating point; RecommendedServers is the right-sized count.
	CurrentServers     int
	RecommendedServers int
	// SavingsFrac is the relative reduction.
	SavingsFrac float64
	// ForecastLatencyMs is the predicted p95 latency at the recommended
	// count and reference load; BaselineLatencyMs is the current value.
	BaselineLatencyMs float64
	ForecastLatencyMs float64
	// Plannable is false when the pool failed metric validation even
	// after refinement, or had too little data — such pools keep their
	// current capacity.
	Plannable bool
	// Reason explains why a pool is not plannable.
	Reason string
}

// Plan runs Steps 1-2 for every pool in the aggregator and returns one plan
// per (pool, DC), sorted by pool then DC. Cancellation is checked between
// pools; a cancelled ctx returns ctx.Err().
func Plan(ctx context.Context, agg *metrics.Aggregator, cfg PlanConfig) ([]PoolPlan, error) {
	if agg == nil {
		return nil, errors.New("core: nil aggregator")
	}
	cfg = cfg.withDefaults()
	keys := agg.Pools()
	if len(keys) == 0 {
		return nil, errors.New("core: no pools in trace")
	}
	plans := make([]PoolPlan, 0, len(keys))
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := planPool(agg, key, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: pool %s: %w", key, err)
		}
		plans = append(plans, plan)
	}
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].Pool != plans[j].Pool {
			return plans[i].Pool < plans[j].Pool
		}
		return plans[i].DC < plans[j].DC
	})
	return plans, nil
}

func planPool(agg *metrics.Aggregator, key metrics.PoolKey, cfg PlanConfig) (PoolPlan, error) {
	plan := PoolPlan{DC: key.DC, Pool: key.Pool}
	series, err := agg.PoolSeries(key.DC, key.Pool)
	if err != nil {
		return PoolPlan{}, err
	}
	if len(series) < 10 {
		plan.Reason = fmt.Sprintf("insufficient data (%d windows)", len(series))
		return plan, nil
	}

	// Step 1a: validate the workload metric, refining if needed.
	rep, err := measure.ValidateWorkloadMetric(series)
	if err != nil {
		return PoolPlan{}, err
	}
	plan.Validation = rep
	working := series
	if cpu, err := rep.Counter("cpu"); err == nil && !cpu.Linear {
		ref, err := measure.RefineByOutlierRemoval(series)
		if err != nil {
			plan.Reason = "metric refinement failed: " + err.Error()
			return plan, nil
		}
		if ref.After >= measure.DefaultLinearR2 {
			plan.Refined = true
			working = ref.Clean
			rep2, err := measure.ValidateWorkloadMetric(working)
			if err != nil {
				return PoolPlan{}, err
			}
			plan.Validation = rep2
		} else {
			plan.Reason = fmt.Sprintf("workload metric not linear (R2 %.2f before, %.2f after refinement)", ref.Before, ref.After)
			return plan, nil
		}
	}

	// Step 1b: identify server groups.
	sums, err := agg.ServerSummaries(key.DC, key.Pool)
	if err != nil {
		return PoolPlan{}, err
	}
	grouping, err := measure.GroupServers(sums, cfg.MaxGroups, cfg.Seed)
	if err != nil {
		return PoolPlan{}, err
	}
	plan.Groups = len(grouping.Groups)

	// Step 2: fit models and right-size.
	sz, err := optimize.SizePool(working, optimize.SavingsConfig{
		LatencyBudgetMs:  cfg.LatencyBudgetMs,
		MaxReductionFrac: cfg.MaxReductionFrac,
	})
	if err != nil {
		return PoolPlan{}, err
	}
	plan.Model = sz.Model
	plan.CurrentServers = sz.Current
	plan.RecommendedServers = sz.Recommended
	plan.SavingsFrac = sz.SavingsFrac
	plan.BaselineLatencyMs = sz.BaselineLatencyMs
	plan.ForecastLatencyMs = sz.ForecastLatencyMs
	plan.Plannable = true
	return plan, nil
}

// SimPlant adapts the simulator's controlled pool harness to the
// optimize.Plant interface so RSM experiments can run against it. Each
// Observe call replays the pool's organic diurnal load at the requested
// server count.
type SimPlant struct {
	// Pool is the micro-service under experiment.
	Pool sim.PoolConfig
	// DC is the datacenter whose share of traffic drives the pool.
	DC workload.Datacenter
	// NoiseFrac adds workload noise per tick.
	NoiseFrac float64
	// Seed is advanced on every Observe so successive iterations see fresh
	// (but reproducible) traffic.
	Seed int64

	calls int
}

var _ optimize.Plant = (*SimPlant)(nil)

// Observe implements optimize.Plant.
func (p *SimPlant) Observe(ctx context.Context, servers, ticks int) ([]metrics.TickStat, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("core: non-positive server count %d", servers)
	}
	if ticks <= 0 {
		return nil, fmt.Errorf("core: non-positive tick count %d", ticks)
	}
	p.calls++
	gen, err := workload.NewGenerator(p.Pool.Traffic, []workload.Datacenter{p.DC}, p.Pool.Schedule,
		workload.TickDuration, p.NoiseFrac, p.Seed+int64(p.calls))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	offered := make([]float64, ticks)
	for t := 0; t < ticks; t++ {
		v, err := gen.RPS(0, t)
		if err != nil {
			return nil, err
		}
		// The plant's DC receives its fleet share of the pool's traffic.
		offered[t] = v * p.DC.Weight
	}
	series, err := sim.SimulatePoolSeries(ctx, p.Pool, p.DC.Name, offered, servers, p.Seed+int64(p.calls))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return series, nil
}
