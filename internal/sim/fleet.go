package sim

import (
	"fmt"

	"headroom/internal/workload"
)

// The named pools reproduce the paper's Table I micro-services plus pool H
// (Figure 15) and pool I (Figure 3). Filler pools shape the fleet-level
// utilisation and availability distributions of Figures 12-14.
//
// Ground-truth response parameters for pools B and D are tuned so that the
// black-box fits recover the paper's published models:
//
//	pool B: cpu = 0.028*rps + 1.37        lat = 4.028e-5*rps^2 - 0.031*rps + 36.68
//	pool D: cpu = 0.0916*rps + 5.006      lat = 4.66e-3*rps^2 - 0.80*rps + 86.50

// PoolB returns the paper's pool B: a query-modification micro-service
// (spelling corrections) processing ~377 RPS/server at the 95th percentile
// of load in DC 1.
func PoolB() PoolConfig {
	return PoolConfig{
		Name:        "B",
		Description: "Modifies incoming requests such as spelling corrections",
		Servers:     map[string]int{"DC 1": 300, "DC 4": 250},
		Response: ResponseParams{
			CPUSlope: 0.028, CPUIntercept: 1.37, CPUNoise: 0.35,
			LatQuad: [3]float64{36.68, -0.031, 4.028e-5}, LatNoise: 0.7,
			NetBytesPerReq: 24000, NetPktsPerReq: 22,
			MemPagesBase: 9000, DiskBytesPerPage: 2400, DiskQueueBase: 0.8,
			ErrorRate: 0.01,
		},
		Traffic:      workload.Pattern{BaseRPS: 525000, PeakToTrough: 2.2, PeakHour: 13},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolD returns the paper's pool D: the in-datacenter traffic-routing
// micro-service used in the 10% reduction experiment, present in six
// datacenters (the Figure 2 counter study).
func PoolD() PoolConfig {
	return PoolConfig{
		Name:        "D",
		Description: "Converts responses from data to formatted web pages; routes traffic within the datacenter",
		Servers: map[string]int{
			"DC 1": 200, "DC 2": 125, "DC 3": 210, "DC 4": 165, "DC 5": 150, "DC 6": 110,
		},
		Response: ResponseParams{
			CPUSlope: 0.0916, CPUIntercept: 5.006, CPUNoise: 0.4,
			LatQuad: [3]float64{86.50, -0.80, 4.66e-3}, LatNoise: 1.1,
			NetBytesPerReq: 46000, NetPktsPerReq: 46,
			MemPagesBase: 14000, DiskBytesPerPage: 2600, DiskQueueBase: 1.2,
			ErrorRate: 0.015,
		},
		DCLatencyDelta: map[string]float64{"DC 4": 7},
		Traffic:        workload.Pattern{BaseRPS: 72500, PeakToTrough: 1.9, PeakHour: 14},
		Availability:   AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolA returns the paper's pool A: an in-memory store similar to
// MemCached. Its servers run a periodic background log upload whose CPU and
// network spikes contaminate the workload metric — the metric-validation
// case study of §II-A1.
func PoolA() PoolConfig {
	return PoolConfig{
		Name:        "A",
		Description: "In-Memory Storage (similar to MemCached)",
		Servers:     map[string]int{"DC 1": 120, "DC 3": 110},
		Response: ResponseParams{
			CPUSlope: 0.012, CPUIntercept: 2.1, CPUNoise: 0.3,
			LatQuad: [3]float64{2, -0.03, 1.67e-4}, LatNoise: 0.25,
			NetBytesPerReq: 5200, NetPktsPerReq: 9,
			MemPagesBase: 3000, DiskBytesPerPage: 1500, DiskQueueBase: 0.2,
			ErrorRate: 0.004,
			// Hourly log upload (30 ticks at 120 s): +9% CPU for 2 windows.
			BackgroundPeriodTicks: 30, BackgroundDurTicks: 2,
			BackgroundCPU: 9, BackgroundNetBytes: 3.5e8,
		},
		Traffic:      workload.Pattern{BaseRPS: 210000, PeakToTrough: 2.4, PeakHour: 13},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolC returns the paper's pool C: a workflow orchestrator with heavy
// deployment churn (the ~90% availability pool of Figure 15).
func PoolC() PoolConfig {
	return PoolConfig{
		Name:        "C",
		Description: "Orchestrates a workflow of stateless processing modules",
		Servers:     map[string]int{"DC 1": 100, "DC 4": 100},
		Response: ResponseParams{
			CPUSlope: 0.09, CPUIntercept: 4, CPUNoise: 0.6,
			LatQuad: [3]float64{60, -0.3, 3e-3}, LatNoise: 1.4,
			NetBytesPerReq: 30000, NetPktsPerReq: 30,
			MemPagesBase: 11000, DiskBytesPerPage: 2500, DiskQueueBase: 1.0,
			ErrorRate: 0.02,
		},
		Traffic: workload.Pattern{BaseRPS: 52000, PeakToTrough: 2, PeakHour: 14},
		Availability: AvailabilityProfile{
			PlannedDailyFrac: 0.10,
			IncidentProb:     0.04, IncidentFrac: 0.25, IncidentTicks: 40,
		},
	}
}

// PoolE returns the paper's pool E: the split-TCP proxy / CDN / load-
// balancer / authentication tier.
func PoolE() PoolConfig {
	return PoolConfig{
		Name:        "E",
		Description: "Split-TCP proxy, CDN, load balancer, and authentication service (similar to Squid)",
		Servers:     map[string]int{"DC 1": 80, "DC 5": 70},
		Response: ResponseParams{
			CPUSlope: 0.016, CPUIntercept: 3, CPUNoise: 0.5,
			LatQuad: [3]float64{8, -0.0012, 1.1e-6}, LatNoise: 0.4,
			NetBytesPerReq: 92000, NetPktsPerReq: 95,
			MemPagesBase: 2500, DiskBytesPerPage: 1200, DiskQueueBase: 0.3,
			ErrorRate: 0.01,
		},
		Traffic:      workload.Pattern{BaseRPS: 700000, PeakToTrough: 2.3, PeakHour: 13},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolF returns the paper's pool F: in-memory storage with custom
// processing logic.
func PoolF() PoolConfig {
	return PoolConfig{
		Name:        "F",
		Description: "In-Memory storage with custom processing logic",
		Servers:     map[string]int{"DC 3": 90, "DC 7": 60},
		Response: ResponseParams{
			CPUSlope: 0.03, CPUIntercept: 2.6, CPUNoise: 0.4,
			LatQuad: [3]float64{12, -0.006, 9e-6}, LatNoise: 0.5,
			NetBytesPerReq: 15000, NetPktsPerReq: 16,
			MemPagesBase: 6000, DiskBytesPerPage: 2000, DiskQueueBase: 0.5,
			ErrorRate: 0.008,
		},
		Traffic:      workload.Pattern{BaseRPS: 90000, PeakToTrough: 2.1, PeakHour: 12},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolG returns the paper's pool G: the high-volume, low-latency metrics
// collection system.
func PoolG() PoolConfig {
	return PoolConfig{
		Name:        "G",
		Description: "High volume, low latency, metrics collection system used for automated operational decisions",
		Servers:     map[string]int{"DC 1": 50, "DC 4": 50},
		Response: ResponseParams{
			CPUSlope: 0.004, CPUIntercept: 1.8, CPUNoise: 0.25,
			LatQuad: [3]float64{847, -1.3, 5e-4}, LatNoise: 0.12,
			NetBytesPerReq: 1800, NetPktsPerReq: 3,
			MemPagesBase: 1600, DiskBytesPerPage: 900, DiskQueueBase: 0.15,
			ErrorRate: 0.002,
		},
		Traffic:      workload.Pattern{BaseRPS: 400000, PeakToTrough: 1.6, PeakHour: 13},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolH returns pool H from Figure 15: a consistently well-managed pool at
// ~98% availability.
func PoolH() PoolConfig {
	return PoolConfig{
		Name:        "H",
		Description: "Well-managed request processing pool (Figure 15 comparison pool)",
		Servers:     map[string]int{"DC 2": 80, "DC 5": 70},
		Response: ResponseParams{
			CPUSlope: 0.05, CPUIntercept: 3.2, CPUNoise: 0.4,
			LatQuad: [3]float64{25, -0.05, 4e-4}, LatNoise: 0.7,
			NetBytesPerReq: 20000, NetPktsPerReq: 21,
			MemPagesBase: 7000, DiskBytesPerPage: 2100, DiskQueueBase: 0.6,
			ErrorRate: 0.01,
		},
		Traffic:      workload.Pattern{BaseRPS: 60000, PeakToTrough: 2, PeakHour: 14},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// PoolI returns pool I from Figure 3: a pool mixing two hardware
// generations, whose (p5, p95) CPU scatter forms two clusters because the
// newer generation runs the same workload at roughly half the utilisation.
func PoolI() PoolConfig {
	return PoolConfig{
		Name:        "I",
		Description: "Mixed-hardware-generation pool (Figure 3 case study)",
		Servers: map[string]int{
			"DC 1": 60, "DC 3": 50, "DC 4": 40, "DC 5": 40, "DC 7": 30, "DC 8": 20,
		},
		Generations: []Generation{
			{Name: "gen-old", Share: 0.5, CPUFactor: 1},
			{Name: "gen-new", Share: 0.5, CPUFactor: 0.45},
		},
		Response: ResponseParams{
			CPUSlope: 0.055, CPUIntercept: 2.8, CPUNoise: 0.35,
			LatQuad: [3]float64{18, -0.02, 1.5e-4}, LatNoise: 0.5,
			NetBytesPerReq: 18000, NetPktsPerReq: 18,
			MemPagesBase: 6000, DiskBytesPerPage: 2000, DiskQueueBase: 0.5,
			ErrorRate: 0.008,
		},
		Traffic:      workload.Pattern{BaseRPS: 160000, PeakToTrough: 2.2, PeakHour: 13},
		Availability: AvailabilityProfile{PlannedDailyFrac: 0.02},
	}
}

// fillerPools shapes the fleet-level distributions: a large idle population
// (p95 CPU <= 15%), a moderate band, repurposed pools (offline off-peak,
// <= 80% availability), deployment-churn pools (~85% availability), and a
// small spiky/busy tail so ~15% of machines see >40% CPU at some point
// while high samples stay rare (Figures 12-14).
func fillerPools() []PoolConfig {
	mk := func(name string, servers map[string]int, slope, intercept, base float64,
		av AvailabilityProfile, spikeProb, spikeAmp float64) PoolConfig {
		return PoolConfig{
			Name:        name,
			Description: "synthetic fleet filler pool",
			Servers:     servers,
			Response: ResponseParams{
				CPUSlope: slope, CPUIntercept: intercept, CPUNoise: 0.5,
				LatQuad: [3]float64{20, -0.01, 1e-4}, LatNoise: 0.6,
				NetBytesPerReq: 12000, NetPktsPerReq: 12,
				MemPagesBase: 5000, DiskBytesPerPage: 1800, DiskQueueBase: 0.4,
				ErrorRate: 0.008, SpikeProb: spikeProb, SpikeAmp: spikeAmp,
			},
			Traffic:      workload.Pattern{BaseRPS: base, PeakToTrough: 2.2, PeakHour: 13},
			Availability: av,
		}
	}
	std := AvailabilityProfile{PlannedDailyFrac: 0.02}
	churn := AvailabilityProfile{PlannedDailyFrac: 0.15}
	repurposed := AvailabilityProfile{PlannedDailyFrac: 0.02, RepurposedOffPeakFrac: 0.38}
	lentOut := AvailabilityProfile{PlannedDailyFrac: 0.02, RepurposedOffPeakFrac: 0.43}

	return []PoolConfig{
		// Idle population: p95 CPU ~8-13% (the bulk of Figure 12's CDF).
		mk("L1", map[string]int{"DC 1": 200, "DC 3": 210, "DC 5": 190}, 0.02, 6, 300000, churn, 0, 0),
		mk("L2", map[string]int{"DC 7": 200, "DC 8": 200, "DC 9": 180}, 0.02, 6, 200000, repurposed, 0, 0),
		mk("L3", map[string]int{"DC 6": 200, "DC 8": 200}, 0.02, 6, 130000, lentOut, 0, 0),
		// Moderate band: p95 CPU ~18-26%.
		mk("M1", map[string]int{"DC 1": 240, "DC 4": 230, "DC 6": 230}, 0.085, 8, 160000, churn, 0, 0),
		mk("M2", map[string]int{"DC 2": 220, "DC 5": 220}, 0.085, 8, 200000, lentOut, 0, 0),
		// Spiky population: usually idle but with frequent short spikes, so
		// the p95-CDF grows a 30-100% tail while high samples stay rare.
		mk("S1", map[string]int{"DC 2": 160, "DC 6": 160}, 0.02, 5, 100000, std, 0.08, 45),
		mk("S2", map[string]int{"DC 4": 140, "DC 8": 130}, 0.02, 5, 80000, std, 0.08, 85),
		mk("S3", map[string]int{"DC 3": 125, "DC 7": 125}, 0.02, 5, 80000, churn, 0.08, 65),
		mk("S4", map[string]int{"DC 5": 110, "DC 9": 110}, 0.02, 5, 60000, repurposed, 0.08, 55),
		// Genuinely busy tail (kept small so high CPU samples remain rare).
		mk("U1", map[string]int{"DC 1": 50}, 0.20, 12, 36000, std, 0.02, 25),
		mk("U2", map[string]int{"DC 5": 40}, 0.25, 15, 40000, std, 0.02, 25),
	}
}

// DefaultFleet assembles the full simulated service: the paper's named
// pools A-I plus the filler population, across the nine-region topology.
func DefaultFleet(seed int64) FleetConfig {
	pools := []PoolConfig{
		PoolA(), PoolB(), PoolC(), PoolD(), PoolE(), PoolF(), PoolG(), PoolH(), PoolI(),
	}
	pools = append(pools, fillerPools()...)
	return FleetConfig{
		DCs:               workload.NineRegions(),
		Pools:             pools,
		Tick:              workload.TickDuration,
		WorkloadNoiseFrac: 0.04,
		Seed:              seed,
	}
}

// NamedPool returns the configured pool with the given name from a fleet.
func NamedPool(cfg FleetConfig, name string) (PoolConfig, error) {
	for _, p := range cfg.Pools {
		if p.Name == name {
			return p, nil
		}
	}
	return PoolConfig{}, fmt.Errorf("sim: no pool named %q", name)
}

// TotalServers returns the number of servers in the fleet.
func TotalServers(cfg FleetConfig) int {
	var n int
	for _, p := range cfg.Pools {
		for _, c := range p.Servers {
			n += c
		}
	}
	return n
}
