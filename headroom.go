// Package headroom is a reproduction of "Right-sizing Server Capacity
// Headroom for Global Online Services" (Verbowski et al., ICDCS 2018): a
// black-box capacity-planning methodology for large, low-latency,
// geo-distributed online services, together with the fleet simulator,
// statistics substrate, baselines and benchmark harness needed to reproduce
// the paper's evaluation.
//
// The entry point is a Session (see New), configured with functional
// options, whose methods expose the four-step pipeline:
//
//  1. Measure  — validate workload metrics, group servers (Simulate + Plan)
//  2. Optimize — fit workload→QoS models and right-size pools (Plan, RunRSM)
//  3. Model    — build and replay synthetic workloads (BuildProfile,
//     NewSynthSource)
//  4. Validate — gate changes offline before deployment (Validate)
//
// Every pipeline step consumes a Source — a stream of trace records — so
// the simulator, synthetic replays and recorded traces are interchangeable
// inputs. Aggregation shards across goroutines (per pool) with results
// bit-identical to a sequential pass.
//
// Paper tables and figures are regenerated through Session.RunExperiment /
// Experiments; `go test -bench .` runs one benchmark per artifact.
//
// cmd/capserved serves the same pipeline as a long-running HTTP/JSON job
// API with a bounded worker pool and a keyed result cache.
package headroom

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"headroom/internal/core"
	"headroom/internal/forecast"
	"headroom/internal/metrics"
	"headroom/internal/optimize"
	"headroom/internal/sim"
	"headroom/internal/synth"
	"headroom/internal/trace"
	"headroom/internal/validate"
	"headroom/internal/workload"
)

// Re-exported types: the facade aliases the internal implementation so a
// downstream user needs a single import.
type (
	// FleetConfig describes a simulated service (datacenters + pools).
	FleetConfig = sim.FleetConfig
	// PoolConfig describes one micro-service server pool.
	PoolConfig = sim.PoolConfig
	// ResponseParams is a pool's ground-truth response model.
	ResponseParams = sim.ResponseParams
	// Action is a scheduled operational change (reduction, deployment).
	Action = sim.Action
	// Record is one 120-second observation window for one server.
	Record = trace.Record
	// Aggregator turns records into pool/server statistics. Aggregators
	// built from disjoint shards of a stream merge losslessly (Merge).
	Aggregator = metrics.Aggregator
	// PlanConfig controls a planning pass.
	PlanConfig = core.PlanConfig
	// PoolPlan is the planning outcome for one pool in one datacenter.
	PoolPlan = core.PoolPlan
	// RSMConfig controls an iterative reduction experiment.
	RSMConfig = optimize.RSMConfig
	// RSMResult is the outcome of a reduction experiment.
	RSMResult = optimize.RSMResult
	// Plant is a system that can run a pool at a server count and report
	// observations (the simulator, in this reproduction).
	Plant = optimize.Plant
	// SimPlant adapts the simulator to the Plant interface.
	SimPlant = core.SimPlant
	// ValidateConfig controls an offline A/B validation run.
	ValidateConfig = validate.Config
	// Change is a candidate modification under offline validation.
	Change = validate.Change
	// ValidateReport is the outcome of an offline validation run.
	ValidateReport = validate.Report
	// Datacenter is one region of the simulated topology.
	Datacenter = workload.Datacenter
	// ForecastModel is a fitted workload trend + daily-seasonality model.
	ForecastModel = forecast.Model
	// Profile is a reproducible synthetic workload (Step 3), replayable
	// through NewSynthSource.
	Profile = synth.Profile
)

// DefaultFleet returns the paper-shaped fleet: pools A-I (Table I and the
// figure case studies) plus a filler population shaping the fleet-wide
// utilisation and availability distributions of Figures 12-14.
func DefaultFleet(seed int64) FleetConfig { return sim.DefaultFleet(seed) }

// PoolB returns the paper's pool B (the 30% reduction experiment subject).
func PoolB() PoolConfig { return sim.PoolB() }

// PoolD returns the paper's pool D (the 10% reduction experiment subject).
func PoolD() PoolConfig { return sim.PoolD() }

// NineRegions returns the nine-datacenter global topology.
func NineRegions() []Datacenter { return workload.NineRegions() }

// NamedPool returns the configured pool with the given name from a fleet,
// or an error naming the missing pool. Services that accept pool names on
// the wire (cmd/capserved) resolve them through this lookup.
func NamedPool(cfg FleetConfig, name string) (PoolConfig, error) {
	return sim.NamedPool(cfg, name)
}

// FilterPools returns the fleet restricted to the named pools, in fleet
// order; no names keeps the whole fleet. It is the one pool filter behind
// every surface that takes pool names (capserved requests, capsim -pools): an
// empty name or a name the fleet does not have is an error, never a silently
// smaller fleet.
func FilterPools(cfg FleetConfig, names []string) (FleetConfig, error) {
	if len(names) == 0 {
		return cfg, nil
	}
	keep := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			return cfg, errors.New("pools contains an empty name")
		}
		keep[name] = true
	}
	var filtered []PoolConfig
	for _, pc := range cfg.Pools {
		if keep[pc.Name] {
			filtered = append(filtered, pc)
			delete(keep, pc.Name)
		}
	}
	if len(keep) > 0 {
		missing := make([]string, 0, len(keep))
		for name := range keep {
			missing = append(missing, name)
		}
		sort.Strings(missing)
		return cfg, fmt.Errorf("unknown pools: %s", strings.Join(missing, ", "))
	}
	cfg.Pools = filtered
	return cfg, nil
}

// BuildProfile derives a synthetic workload profile from production pool
// history: a load sweep covering the observed per-server range (plus
// extendFrac stretch beyond the p99 for stress testing) at a controlled
// offline pool size. Replay it with NewSynthSource.
func BuildProfile(series []metrics.TickStat, mix workload.Mix, servers, levels int, extendFrac float64) (Profile, error) {
	return synth.BuildProfile(series, mix, servers, levels, extendFrac)
}
