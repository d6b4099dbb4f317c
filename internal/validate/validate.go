// Package validate implements Step 4 of the capacity-planning methodology
// (§II-D of the paper): offline regression analysis of changes before they
// reach production.
//
// The harness runs two pools of the same size and hardware — one with the
// change, one without — under precisely identical synthetic workloads (one
// synth.Profile, replayed to each pool by synth.Replay), makes small load
// increments across a sweep, and compares latency and resource
// utilisation level by level. This detects not just THAT a change regressed
// capacity or QoS but the curve describing the change, so capacity plans can
// be adjusted before deployment (§III-C's memory-leak case study: the fix
// was confirmed, but it introduced a latency regression under high load that
// offline analysis caught before rollout).
package validate

import (
	"context"
	"errors"
	"fmt"

	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/synth"
)

// Change is a candidate modification to a micro-service, expressed as a
// transformation of its response parameters (the offline build with the
// change applied).
type Change struct {
	// Name labels the change in reports.
	Name string
	// Apply returns the changed response model.
	Apply func(sim.ResponseParams) sim.ResponseParams
}

// Config controls one A/B validation run.
type Config struct {
	// Pool is the micro-service under test.
	Pool sim.PoolConfig
	// Profile is the synthetic workload both offline pools replay: its
	// per-server load sweep at its pool size (Step 3's output).
	Profile synth.Profile
	// TicksPerLevel is how many windows each load level runs, at least 2;
	// zero or less means 20.
	TicksPerLevel int
	// LatencyTolMs and CPUTolPct bound the acceptable regression at any
	// level; defaults 2 ms and 1.5 percentage points.
	LatencyTolMs float64
	CPUTolPct    float64
	// Seed drives both pools deterministically. The two pools use
	// different derived seeds but identical offered loads, like the
	// paper's "precisely generate identical workloads to each pool".
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LatencyTolMs <= 0 {
		c.LatencyTolMs = 2
	}
	if c.CPUTolPct <= 0 {
		c.CPUTolPct = 1.5
	}
	if c.TicksPerLevel <= 0 {
		c.TicksPerLevel = 20
	}
	return c
}

// LevelResult compares the two pools at one load level (one column pair of
// the paper's Figure 16 box plot).
type LevelResult struct {
	// LoadRPSPerServer is the per-server offered load.
	LoadRPSPerServer float64
	// BaselineLatency and ChangeLatency summarise per-window pool-mean
	// latency at this level.
	BaselineLatency stats.Summary
	ChangeLatency   stats.Summary
	// BaselineCPU and ChangeCPU are the mean pool CPU percentages.
	BaselineCPU float64
	ChangeCPU   float64
	// BaselineMemPages and ChangeMemPages are mean paging rates (the
	// memory-leak signal of §III-C).
	BaselineMemPages float64
	ChangeMemPages   float64
}

// Report is the outcome of an offline validation run.
type Report struct {
	Change string
	Levels []LevelResult
	// LatencyRegression is true when the change's latency exceeds baseline
	// beyond tolerance at any level; FirstRegressionLoad is the lowest
	// such load.
	LatencyRegression   bool
	FirstRegressionLoad float64
	// CapacityImpactFrac estimates the relative capacity change from the
	// CPU slopes (positive = the change needs more servers for the same
	// load).
	CapacityImpactFrac float64
	// MemoryImproved is true when the change reduced paging at every
	// level (the intended effect of the §III-C fix).
	MemoryImproved bool
	// Acceptable is the deployment gate: no latency regression and no
	// capacity increase beyond 5%.
	Acceptable bool
}

// Run executes the A/B comparison. Cancellation is checked throughout both
// simulated runs; a cancelled ctx returns ctx.Err().
func Run(ctx context.Context, cfg Config, change Change) (Report, error) {
	cfg = cfg.withDefaults()
	// A level's latency summary needs two windows for its spread: one
	// window summarises to a NaN standard deviation, which JSON cannot render.
	if cfg.TicksPerLevel < 2 {
		return Report{}, fmt.Errorf("validate: ticks_per_level must be >= 2, got %d", cfg.TicksPerLevel)
	}
	if change.Apply == nil {
		return Report{}, errors.New("validate: change with nil Apply")
	}
	changedPool := cfg.Pool
	changedPool.Response = change.Apply(cfg.Pool.Response)
	if err := changedPool.Response.Validate(); err != nil {
		return Report{}, fmt.Errorf("validate: changed response invalid: %w", err)
	}

	baseSeries, err := synth.Replay(ctx, cfg.Pool, "offline-a", cfg.Profile, cfg.TicksPerLevel, cfg.Seed)
	if err != nil {
		return Report{}, fmt.Errorf("validate: baseline run: %w", err)
	}
	changeSeries, err := synth.Replay(ctx, changedPool, "offline-b", cfg.Profile, cfg.TicksPerLevel, cfg.Seed+1)
	if err != nil {
		return Report{}, fmt.Errorf("validate: change run: %w", err)
	}

	rep := Report{Change: change.Name, MemoryImproved: true}
	var baseX, baseCPU, chX, chCPU []float64
	for li, load := range cfg.Profile.Loads {
		lo, hi := li*cfg.TicksPerLevel, (li+1)*cfg.TicksPerLevel
		var bLat, cLat []float64
		var bCPU, cCPU, bMem, cMem float64
		for _, t := range baseSeries[lo:hi] {
			bLat = append(bLat, t.LatencyMean)
			bCPU += t.CPUMean
			bMem += t.MemPages
			baseX = append(baseX, t.RPSPerServer)
			baseCPU = append(baseCPU, t.CPUMean)
		}
		for _, t := range changeSeries[lo:hi] {
			cLat = append(cLat, t.LatencyMean)
			cCPU += t.CPUMean
			cMem += t.MemPages
			chX = append(chX, t.RPSPerServer)
			chCPU = append(chCPU, t.CPUMean)
		}
		n := float64(cfg.TicksPerLevel)
		lr := LevelResult{
			LoadRPSPerServer: load,
			BaselineLatency:  stats.Summarize(bLat),
			ChangeLatency:    stats.Summarize(cLat),
			BaselineCPU:      bCPU / n,
			ChangeCPU:        cCPU / n,
			BaselineMemPages: bMem / n,
			ChangeMemPages:   cMem / n,
		}
		rep.Levels = append(rep.Levels, lr)
		if lr.ChangeLatency.Mean-lr.BaselineLatency.Mean > cfg.LatencyTolMs {
			if !rep.LatencyRegression {
				rep.FirstRegressionLoad = load
			}
			rep.LatencyRegression = true
		}
		if lr.ChangeMemPages >= lr.BaselineMemPages {
			rep.MemoryImproved = false
		}
	}

	bFit, err := stats.LinearRegression(baseX, baseCPU)
	if err != nil {
		return Report{}, fmt.Errorf("validate: baseline cpu fit: %w", err)
	}
	cFit, err := stats.LinearRegression(chX, chCPU)
	if err != nil {
		return Report{}, fmt.Errorf("validate: change cpu fit: %w", err)
	}
	if bFit.Slope != 0 {
		rep.CapacityImpactFrac = cFit.Slope/bFit.Slope - 1
	}
	rep.Acceptable = !rep.LatencyRegression && rep.CapacityImpactFrac <= 0.05
	return rep, nil
}
