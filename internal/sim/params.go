// Package sim is a discrete-time simulator of a global online service:
// datacenters containing micro-service server pools whose servers respond to
// offered load with CPU, latency, secondary resource counters and an
// availability state, in 120-second windows.
//
// It is the substitute for the production fleet the paper measured (100K+
// servers, 9 regions, 90 days, 30 PB of counters). The capacity-planning
// methodology in internal/measure and internal/optimize treats the simulator
// as a black box: it consumes only the emitted trace records, never the
// ground-truth parameters configured here.
package sim

import (
	"errors"
	"fmt"
	"time"

	"headroom/internal/workload"
)

// Generation describes a hardware generation present in a pool. The paper's
// Figure 3 shows a pool whose (p5, p95) CPU scatter forms two clusters
// because newer, more powerful servers run the same workload at lower
// utilisation.
type Generation struct {
	// Name identifies the generation in trace records.
	Name string
	// Share is the fraction of the pool's servers on this generation.
	// Shares are normalised across the pool's generations.
	Share float64
	// CPUFactor scales the CPU response (slope and intercept); newer
	// hardware has a factor below 1.
	CPUFactor float64
}

// ResponseParams is the ground-truth response model of one micro-service's
// servers. The methodology must rediscover these relationships from traces.
type ResponseParams struct {
	// CPUSlope is %CPU per request/second/server; CPUIntercept is the idle
	// baseline. The paper's pool B fit was cpu = 0.028*rps + 1.37.
	CPUSlope     float64
	CPUIntercept float64
	// CPUNoise is the standard deviation of additive Gaussian CPU noise.
	CPUNoise float64

	// LatQuad holds [a0, a1, a2] of the truth p95-latency quadratic
	// lat = a2*rps^2 + a1*rps + a0 (milliseconds). A negative a1 produces
	// the elevated latency at low workload the paper attributes to cache
	// priming and managed-code compilation.
	LatQuad [3]float64
	// LatNoise is the standard deviation of additive Gaussian latency
	// noise (ms).
	LatNoise float64

	// Secondary counters (Figure 2 set).
	NetBytesPerReq   float64 // network bytes per request
	NetPktsPerReq    float64 // packets per request
	MemPagesBase     float64 // max of uniform paging noise (pages/sec)
	DiskBytesPerPage float64 // disk read bytes per paged page
	DiskQueueBase    float64 // mean disk queue length
	ErrorRate        float64 // mean errors per window

	// SpikeProb is the per-server per-window probability of a transient
	// CPU spike (process restart, cache refill); SpikeAmp is its maximum
	// amplitude in CPU percentage points. The paper found such spikes rare
	// (<0.1% of samples above 40% CPU).
	SpikeProb float64
	SpikeAmp  float64

	// Background models a periodic secondary workload sharing the server —
	// the paper's example was log uploads of many GB/hour whose resource
	// spikes made the primary workload metric look uncorrelated until the
	// effect was identified and removed (§II-A1). Every
	// BackgroundPeriodTicks, for BackgroundDurTicks windows, the server
	// burns BackgroundCPU extra CPU and BackgroundNetBytes extra network
	// bytes, uncorrelated with request load.
	BackgroundPeriodTicks int
	BackgroundDurTicks    int
	BackgroundCPU         float64
	BackgroundNetBytes    float64
}

// Validate checks the parameters are physically sensible.
func (p ResponseParams) Validate() error {
	if p.CPUSlope < 0 {
		return fmt.Errorf("sim: negative CPU slope %v", p.CPUSlope)
	}
	if p.CPUIntercept < 0 {
		return fmt.Errorf("sim: negative CPU intercept %v", p.CPUIntercept)
	}
	if p.CPUNoise < 0 || p.LatNoise < 0 {
		return errors.New("sim: negative noise")
	}
	if p.SpikeProb < 0 || p.SpikeProb > 1 {
		return fmt.Errorf("sim: spike probability %v outside [0,1]", p.SpikeProb)
	}
	if p.BackgroundPeriodTicks < 0 || p.BackgroundDurTicks < 0 {
		return errors.New("sim: negative background workload timing")
	}
	if p.BackgroundDurTicks > 0 && p.BackgroundPeriodTicks < p.BackgroundDurTicks {
		return fmt.Errorf("sim: background duration %d exceeds period %d",
			p.BackgroundDurTicks, p.BackgroundPeriodTicks)
	}
	return nil
}

// AvailabilityProfile models why servers are offline. The paper (§III-B2)
// found fleet-average availability of 83%, with modes at 85% (heavy
// deployment churn) and 98% (well-managed pools, ~2% infrastructure
// maintenance), and pools repurposed off-peak for offline validation
// dropping below 80%.
type AvailabilityProfile struct {
	// PlannedDailyFrac is the fraction of each day each server spends in
	// planned maintenance (deployments: drain, update, restart). Windows
	// are staggered across servers so the pool never drains at once.
	PlannedDailyFrac float64
	// RepurposedOffPeakFrac is the additional fraction of the local day
	// the server is lent out for offline work during the traffic trough.
	RepurposedOffPeakFrac float64
	// IncidentProb is the per-day probability of a pool-wide incident in
	// one datacenter.
	IncidentProb float64
	// IncidentFrac is the fraction of the pool's servers an incident takes
	// offline.
	IncidentFrac float64
	// IncidentTicks is the incident duration in ticks.
	IncidentTicks int
}

// Validate checks the profile is a valid set of fractions.
func (a AvailabilityProfile) Validate() error {
	for _, f := range []float64{a.PlannedDailyFrac, a.RepurposedOffPeakFrac, a.IncidentProb, a.IncidentFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("sim: availability fraction %v outside [0,1]", f)
		}
	}
	if a.PlannedDailyFrac+a.RepurposedOffPeakFrac > 1 {
		return errors.New("sim: combined offline fractions exceed a full day")
	}
	if a.IncidentTicks < 0 {
		return errors.New("sim: negative incident duration")
	}
	return nil
}

// PoolConfig describes one micro-service pool.
type PoolConfig struct {
	// Name is the pool identifier ("A".."I" for the paper's pools).
	Name string
	// Description matches the paper's Table I.
	Description string
	// Servers is the nominal server count per datacenter name.
	Servers map[string]int
	// Response is the truth response model.
	Response ResponseParams
	// Generations lists the hardware generations in the pool. Empty means
	// a single generation with factor 1.
	Generations []Generation
	// Availability is the pool's maintenance behaviour.
	Availability AvailabilityProfile
	// Traffic is the pool's global workload pattern (mean total RPS across
	// all datacenters, peak/trough ratio, peak hour).
	Traffic workload.Pattern
	// Schedule holds pool-specific traffic events (composed with the
	// fleet-wide schedule).
	Schedule *workload.Schedule
	// DCLatencyDelta adds a per-datacenter latency offset (ms); the paper
	// notes pools can exhibit different performance characteristics per
	// datacenter (its pool D behaved ~7 ms slower in DC 4).
	DCLatencyDelta map[string]float64
}

// Validate checks the pool configuration.
func (p PoolConfig) Validate(dcs []workload.Datacenter) error {
	if p.Name == "" {
		return errors.New("sim: pool with empty name")
	}
	if len(p.Servers) == 0 {
		return fmt.Errorf("sim: pool %s has no servers", p.Name)
	}
	known := make(map[string]bool, len(dcs))
	for _, dc := range dcs {
		known[dc.Name] = true
	}
	for dc, n := range p.Servers {
		if !known[dc] {
			return fmt.Errorf("sim: pool %s references unknown datacenter %q", p.Name, dc)
		}
		if n <= 0 {
			return fmt.Errorf("sim: pool %s has %d servers in %s", p.Name, n, dc)
		}
	}
	if err := p.Response.Validate(); err != nil {
		return fmt.Errorf("pool %s: %w", p.Name, err)
	}
	if err := p.Availability.Validate(); err != nil {
		return fmt.Errorf("pool %s: %w", p.Name, err)
	}
	var share float64
	for _, g := range p.Generations {
		if g.Share < 0 {
			return fmt.Errorf("sim: pool %s generation %s has negative share", p.Name, g.Name)
		}
		if g.CPUFactor <= 0 {
			return fmt.Errorf("sim: pool %s generation %s has non-positive CPU factor", p.Name, g.Name)
		}
		share += g.Share
	}
	if len(p.Generations) > 0 && share <= 0 {
		return fmt.Errorf("sim: pool %s generations have zero total share", p.Name)
	}
	return nil
}

// FleetConfig describes the whole simulated service.
type FleetConfig struct {
	// DCs is the datacenter topology.
	DCs []workload.Datacenter
	// Pools is the set of micro-service pools.
	Pools []PoolConfig
	// Tick is the metric window duration; defaults to 120 s.
	Tick time.Duration
	// WorkloadNoiseFrac is the relative noise on offered load per tick.
	WorkloadNoiseFrac float64
	// Seed drives every stochastic component deterministically.
	Seed int64
}

// Validate checks the fleet configuration.
func (c FleetConfig) Validate() error {
	if len(c.DCs) == 0 {
		return errors.New("sim: no datacenters")
	}
	if len(c.Pools) == 0 {
		return errors.New("sim: no pools")
	}
	seen := make(map[string]bool, len(c.Pools))
	for _, p := range c.Pools {
		if seen[p.Name] {
			return fmt.Errorf("sim: duplicate pool %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(c.DCs); err != nil {
			return err
		}
	}
	return nil
}
