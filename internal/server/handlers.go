package server

// Request decoding, validation, canonicalization and the compute functions
// that drive the headroom.Session pipeline: the typed halves of each job
// kind's row (addKind). A compute function returns its wire result;
// finishResult pre-marshals it (json.RawMessage) so cached results are served
// byte-identical to the first computation.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"headroom"
	"headroom/internal/jobcache"
)

// maxDays bounds a single simulation job; longer horizons should be split
// into multiple jobs.
const maxDays = 30

// decode unmarshals strictly: unknown fields are rejected so a typoed
// option fails loudly instead of silently planning the wrong scenario.
func decode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode request: trailing data after JSON object")
	}
	return nil
}

// --- simulate ------------------------------------------------------------

// SimulateRequest parameterizes a fleet-simulation job. The fleet is the
// paper-shaped default fleet for the given seed, optionally filtered to
// named pools.
type SimulateRequest struct {
	// Days is the simulation horizon; default 1, max 30.
	Days int `json:"days"`
	// Seed drives the fleet deterministically; default 1.
	Seed int64 `json:"seed"`
	// Pools filters the fleet to the named pools (sorted and deduplicated
	// during canonicalization); empty keeps the whole fleet.
	Pools []string `json:"pools,omitempty"`
}

func decodeSimulate(body []byte) (SimulateRequest, error) {
	var req SimulateRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	_, err := req.resolve()
	return req, err
}

// resolve canonicalizes the request and resolves its fleet, so a bad horizon
// or an unknown pool name fails the submission (400) instead of the job.
func (r *SimulateRequest) resolve() (headroom.FleetConfig, error) {
	if err := r.Normalize(); err != nil {
		return headroom.FleetConfig{}, err
	}
	return r.Fleet()
}

func (r *SimulateRequest) Normalize() error {
	if r.Days == 0 {
		r.Days = 1
	}
	if r.Days < 0 || r.Days > maxDays {
		return fmt.Errorf("days must be in [1, %d], got %d", maxDays, r.Days)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Pools) > 0 {
		seen := map[string]bool{}
		kept := r.Pools[:0]
		for _, p := range r.Pools {
			p = strings.TrimSpace(p) // Fleet rejects a name that was only space
			if !seen[p] {
				seen[p] = true
				kept = append(kept, p)
			}
		}
		sort.Strings(kept)
		r.Pools = kept
	}
	return nil
}

// Fleet resolves the request's fleet configuration, failing on empty or
// unknown pool names.
func (r SimulateRequest) Fleet() (headroom.FleetConfig, error) {
	return headroom.FilterPools(headroom.DefaultFleet(r.Seed), r.Pools)
}

// ShardFailure is the wire view of one failed shard of a degraded job.
type ShardFailure struct {
	// Shard is the failed shard's index in the aggregation fan-out.
	Shard int `json:"shard"`
	// Pools are the pool names the shard carried.
	Pools []string `json:"pools,omitempty"`
	// Error is the shard's failure.
	Error string `json:"error"`
}

func shardFailures(pe *headroom.PartialError) []ShardFailure {
	out := make([]ShardFailure, len(pe.Failed))
	for i, f := range pe.Failed {
		out[i] = ShardFailure{Shard: f.Shard, Pools: f.Pools, Error: f.Err.Error()}
	}
	return out
}

// PoolSummary condenses one (pool, datacenter) series for the wire.
type PoolSummary struct {
	Pool             string  `json:"pool"`
	DC               string  `json:"dc"`
	Windows          int     `json:"windows"`
	Servers          int     `json:"servers"`
	MeanRPSPerServer float64 `json:"mean_rps_per_server"`
	MeanCPUPct       float64 `json:"mean_cpu_pct"`
	MeanLatencyMs    float64 `json:"mean_latency_ms"`
	PeakLatencyMs    float64 `json:"peak_latency_ms"`
}

// SimulateResult is the wire result of a simulation job.
type SimulateResult struct {
	Days         int           `json:"days"`
	Seed         int64         `json:"seed"`
	PoolDCs      int           `json:"pool_dcs"`
	TotalWindows int           `json:"total_windows"`
	Pools        []PoolSummary `json:"pools"`
	// Degraded marks a partial result: some pools failed and are absent
	// from Pools. Degraded results are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// FailedPools is the sorted union of pool names that failed.
	FailedPools []string `json:"failed_pools,omitempty"`
	// Failures details each failed shard.
	Failures []ShardFailure `json:"failures,omitempty"`
}

// session builds the one session a simulate or plan job — or, on a worker,
// one shard of it — runs on (a simulate request's plan fields, and so its plan
// config, are zero). The source is wrapped, innermost first, with the chaos
// fault injector (Config.Faults) and the resilience layer
// (Config.RetryAttempts); transient errors that escape that layer or the
// dispatcher carry the sentinel the job queue retries on.
func (s *Server) session(req PlanRequest) (*headroom.Session, error) {
	cfg, err := req.Fleet()
	if err != nil {
		return nil, err
	}
	return headroom.New(context.Background(),
		headroom.WithSource(s.wrapSource(headroom.NewSimSource(cfg, req.Days), req.Seed)),
		headroom.WithShards(s.cfg.Shards),
		headroom.WithPartialResults(s.cfg.PartialResults),
		headroom.WithPlanConfig(req.PlanConfig()))
}

// reducer is the reduce half of a fleet job kind: what a shard's aggregate
// comes to, one row per (pool, datacenter), computed where the shard was
// ingested — on its goroutine, or on the worker that ran it (dist.go).
type reducer[R any] func(ctx context.Context, sess *headroom.Session, agg *headroom.Aggregator) ([]R, error)

func planRows(ctx context.Context, sess *headroom.Session, agg *headroom.Aggregator) ([]headroom.PoolPlan, error) {
	if len(agg.Pools()) == 0 {
		return nil, nil // no records, no rows: only a fleet without pools is the planner's error
	}
	return sess.Plan(ctx, agg)
}

// The order the fan-out hands rows back in: by (pool, datacenter).
func planKey(r headroom.PoolPlan) (string, string) { return r.Pool, r.DC }
func summaryKey(r PoolSummary) (string, string)    { return r.Pool, r.DC }

// summaryRows condenses each (pool, datacenter) series of an aggregate into
// its PoolSummary, in Aggregator.Pools order.
func summaryRows(_ context.Context, _ *headroom.Session, agg *headroom.Aggregator) ([]PoolSummary, error) {
	var rows []PoolSummary
	for _, key := range agg.Pools() {
		series, err := agg.PoolSeries(key.DC, key.Pool)
		if err != nil {
			return nil, err
		}
		sum := PoolSummary{Pool: key.Pool, DC: key.DC, Windows: len(series)}
		for _, ts := range series {
			if ts.Servers > sum.Servers {
				sum.Servers = ts.Servers
			}
			sum.MeanRPSPerServer += ts.RPSPerServer
			sum.MeanCPUPct += ts.CPUMean
			sum.MeanLatencyMs += ts.LatencyMean
			if ts.LatencyMean > sum.PeakLatencyMs {
				sum.PeakLatencyMs = ts.LatencyMean
			}
		}
		if n := float64(len(series)); n > 0 {
			sum.MeanRPSPerServer /= n
			sum.MeanCPUPct /= n
			sum.MeanLatencyMs /= n
		}
		rows = append(rows, sum)
	}
	return rows, nil
}

// BuildSimulateResult condenses an aggregate into the wire result for req:
// the library form internal/diffcheck holds the served paths to.
func BuildSimulateResult(req SimulateRequest, agg *headroom.Aggregator, pe *headroom.PartialError) (SimulateResult, error) {
	rows, err := summaryRows(context.Background(), nil, agg)
	return simulateResult(req, rows, pe), err
}

// simulateResult is the single assembly of a simulate result for every
// execution path, so equal rows always render to equal results.
func simulateResult(req SimulateRequest, rows []PoolSummary, pe *headroom.PartialError) SimulateResult {
	res := SimulateResult{Days: req.Days, Seed: req.Seed, PoolDCs: len(rows), Pools: rows}
	for _, sum := range rows {
		res.TotalWindows += sum.Windows
	}
	if pe != nil {
		res.Degraded = true
		res.FailedPools = pe.FailedPools()
		res.Failures = shardFailures(pe)
	}
	return res
}

// fleetRows is the compute of both fleet kinds: one session, one fan-out whose
// shards end in reduce (shardFunc), the surviving rows in key order. A
// *PartialError that left survivors (pools lost, Config.PartialResults on) is
// returned beside them: the result is degraded.
func fleetRows[R any](ctx context.Context, s *Server, req PlanRequest, reduce reducer[R], key func(R) (string, string)) ([]R, *headroom.PartialError, error) {
	sess, err := s.session(req)
	if err != nil {
		return nil, nil, err
	}
	rows, err := headroom.SimulateRows(ctx, sess, shardFunc(s, sess, req, reduce), key)
	var pe *headroom.PartialError
	if errors.As(err, &pe) && len(pe.Failed) < pe.Shards {
		return rows, pe, nil
	}
	return rows, nil, err
}

func (s *Server) computeSimulate(ctx context.Context, req SimulateRequest) (any, *headroom.PartialError, error) {
	rows, pe, err := fleetRows(ctx, s, PlanRequest{SimulateRequest: req}, summaryRows, summaryKey)
	return simulateResult(req, rows, pe), pe, err
}

// finishResult pre-renders a job result so cached repeats are served
// byte-identical, marking degraded (partial) results uncacheable so a later
// identical request recomputes instead of being served a partial answer as
// if it were complete.
func (s *Server) finishResult(ctx context.Context, k *jobKind, v any, pe *headroom.PartialError) (any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	if pe == nil {
		return json.RawMessage(raw), nil
	}
	k.degraded.Inc()
	s.cfg.Logger.WarnContext(ctx, "degraded result",
		"kind", k.name, "failed_pools", pe.FailedPools(), "error", pe.Error())
	return jobcache.Uncacheable{Value: json.RawMessage(raw)}, nil
}

// --- plan ----------------------------------------------------------------

// PlanRequest parameterizes a simulate+plan job.
type PlanRequest struct {
	SimulateRequest
	// LatencyBudgetMs is the acceptable latency increase; default 5.
	LatencyBudgetMs float64 `json:"latency_budget_ms,omitempty"`
	// PlanSeed drives clustering and robust fits; default 2.
	PlanSeed int64 `json:"plan_seed,omitempty"`
	// MaxGroups bounds server-group detection per pool (default 4).
	MaxGroups int `json:"max_groups,omitempty"`
	// MaxReductionFrac caps per-pool savings (default 1/3).
	MaxReductionFrac float64 `json:"max_reduction_frac,omitempty"`
}

func decodePlan(body []byte) (PlanRequest, error) {
	var req PlanRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if _, err := req.resolve(); err != nil {
		return req, err
	}
	return req, req.resolvePlan()
}

// resolvePlan defaults and bounds the plan fields; it leaves the plan seed
// non-zero, which is how a worker tells a plan shard from a simulate shard.
func (r *PlanRequest) resolvePlan() error {
	if r.LatencyBudgetMs < 0 {
		return fmt.Errorf("latency_budget_ms must be >= 0, got %v", r.LatencyBudgetMs)
	}
	if r.LatencyBudgetMs == 0 {
		r.LatencyBudgetMs = 5
	}
	if r.PlanSeed == 0 {
		r.PlanSeed = 2
	}
	if r.MaxGroups < 0 {
		return fmt.Errorf("max_groups must be >= 0, got %d", r.MaxGroups)
	}
	if r.MaxReductionFrac < 0 || r.MaxReductionFrac > 1 {
		return fmt.Errorf("max_reduction_frac must be in [0, 1], got %v", r.MaxReductionFrac)
	}
	return nil
}

// PlanResult is the wire result of a planning job.
type PlanResult struct {
	Days               int                 `json:"days"`
	Seed               int64               `json:"seed"`
	LatencyBudgetMs    float64             `json:"latency_budget_ms"`
	Plans              []headroom.PoolPlan `json:"plans"`
	CurrentServers     int                 `json:"current_servers"`
	RecommendedServers int                 `json:"recommended_servers"`
	SavingsFrac        float64             `json:"savings_frac"`
	// Degraded marks a partial result: some pools failed to simulate and
	// were planned around. Degraded results are never cached.
	Degraded bool `json:"degraded,omitempty"`
	// FailedPools is the sorted union of pool names that failed.
	FailedPools []string `json:"failed_pools,omitempty"`
	// Failures details each failed shard.
	Failures []ShardFailure `json:"failures,omitempty"`
}

// PlanConfig resolves the request's planner configuration; the one mapping
// every execution path shares.
func (r PlanRequest) PlanConfig() headroom.PlanConfig {
	return headroom.PlanConfig{
		LatencyBudgetMs:  r.LatencyBudgetMs,
		Seed:             r.PlanSeed,
		MaxGroups:        r.MaxGroups,
		MaxReductionFrac: r.MaxReductionFrac,
	}
}

// BuildPlanResult assembles the wire result for a plan request from the
// planner's output. Like BuildSimulateResult, it is shared by every
// execution path so equal plans render to equal results.
func BuildPlanResult(req PlanRequest, plans []headroom.PoolPlan, pe *headroom.PartialError) PlanResult {
	res := PlanResult{
		Days:            req.Days,
		Seed:            req.Seed,
		LatencyBudgetMs: req.LatencyBudgetMs,
		Plans:           plans,
	}
	for _, p := range plans {
		if !p.Plannable {
			continue
		}
		res.CurrentServers += p.CurrentServers
		res.RecommendedServers += p.RecommendedServers
	}
	if res.CurrentServers > 0 {
		res.SavingsFrac = 1 - float64(res.RecommendedServers)/float64(res.CurrentServers)
	}
	if pe != nil {
		res.Degraded = true
		res.FailedPools = pe.FailedPools()
		res.Failures = shardFailures(pe)
	}
	return res
}

func (s *Server) computePlan(ctx context.Context, req PlanRequest) (any, *headroom.PartialError, error) {
	plans, pe, err := fleetRows(ctx, s, req, planRows, planKey)
	return BuildPlanResult(req, plans, pe), pe, err
}

// --- validate ------------------------------------------------------------

// ChangeSpec is a JSON-expressible candidate change: deltas applied to the
// pool's ground-truth response model, mirroring the offline build the paper
// validates before deployment.
type ChangeSpec struct {
	// Name labels the change in reports; default "change".
	Name string `json:"name,omitempty"`
	// LatencyDeltaMs shifts the latency curve's constant term.
	LatencyDeltaMs float64 `json:"latency_delta_ms,omitempty"`
	// CPUSlopeFrac scales the CPU-per-load slope by (1 + frac).
	CPUSlopeFrac float64 `json:"cpu_slope_frac,omitempty"`
	// MemPagesDelta shifts the baseline paging rate.
	MemPagesDelta float64 `json:"mem_pages_delta,omitempty"`
	// ErrorRateDelta shifts the error rate.
	ErrorRateDelta float64 `json:"error_rate_delta,omitempty"`
}

func (c ChangeSpec) change() headroom.Change {
	name := c.Name
	if name == "" {
		name = "change"
	}
	return headroom.Change{
		Name: name,
		Apply: func(rp headroom.ResponseParams) headroom.ResponseParams {
			rp.LatQuad[0] += c.LatencyDeltaMs
			rp.CPUSlope *= 1 + c.CPUSlopeFrac
			rp.MemPagesBase += c.MemPagesDelta
			rp.ErrorRate += c.ErrorRateDelta
			return rp
		},
	}
}

// ValidateRequest parameterizes an offline A/B validation job against a
// named pool of the default fleet.
type ValidateRequest struct {
	// Pool names the micro-service under test ("A" … "I"); required.
	Pool string `json:"pool"`
	// Servers sizes each of the two offline pools; default 10.
	Servers int `json:"servers,omitempty"`
	// Loads is the per-server RPS sweep, ascending; required.
	Loads []float64 `json:"loads"`
	// TicksPerLevel is how many windows each level runs; default 20.
	TicksPerLevel int `json:"ticks_per_level,omitempty"`
	// Seed drives both pools deterministically; default 1.
	Seed int64 `json:"seed,omitempty"`
	// LatencyTolMs and CPUTolPct bound the acceptable regression.
	LatencyTolMs float64 `json:"latency_tol_ms,omitempty"`
	CPUTolPct    float64 `json:"cpu_tol_pct,omitempty"`
	// Change is the candidate modification under test.
	Change ChangeSpec `json:"change"`
}

func decodeValidate(body []byte) (ValidateRequest, error) {
	var req ValidateRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if req.Pool == "" {
		return req, fmt.Errorf("pool is required")
	}
	if req.Servers == 0 {
		req.Servers = 10
	}
	if req.Servers < 1 {
		return req, fmt.Errorf("servers must be >= 1, got %d", req.Servers)
	}
	if len(req.Loads) == 0 {
		return req, fmt.Errorf("loads is required (ascending RPS/server sweep)")
	}
	for i, l := range req.Loads {
		if l <= 0 {
			return req, fmt.Errorf("loads[%d] must be positive, got %v", i, l)
		}
		if i > 0 && l <= req.Loads[i-1] {
			return req, fmt.Errorf("loads must be strictly ascending (loads[%d]=%v <= loads[%d]=%v)",
				i, l, i-1, req.Loads[i-1])
		}
	}
	if req.TicksPerLevel < 0 {
		return req, fmt.Errorf("ticks_per_level must be >= 0, got %d", req.TicksPerLevel)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	// Resolve the pool now so unknown names fail the submission (400)
	// instead of the job.
	if _, err := headroom.NamedPool(headroom.DefaultFleet(req.Seed), req.Pool); err != nil {
		return req, err
	}
	return req, nil
}

// ValidateResult is the wire result of a validation job.
type ValidateResult struct {
	Pool   string                  `json:"pool"`
	Report headroom.ValidateReport `json:"report"`
}

func (s *Server) computeValidate(ctx context.Context, req ValidateRequest) (any, *headroom.PartialError, error) {
	pool, err := headroom.NamedPool(headroom.DefaultFleet(req.Seed), req.Pool)
	if err != nil {
		return nil, nil, err
	}
	sess, err := headroom.New(context.Background())
	if err != nil {
		return nil, nil, err
	}
	rep, err := sess.Validate(ctx, headroom.ValidateConfig{
		Pool:          pool,
		Servers:       req.Servers,
		Loads:         req.Loads,
		TicksPerLevel: req.TicksPerLevel,
		LatencyTolMs:  req.LatencyTolMs,
		CPUTolPct:     req.CPUTolPct,
		Seed:          req.Seed,
	}, req.Change.change())
	if err != nil {
		return nil, nil, err
	}
	return ValidateResult{Pool: req.Pool, Report: rep}, nil, nil
}

// --- forecast ------------------------------------------------------------

// ForecastRequest parameterizes a workload-forecast job.
type ForecastRequest struct {
	// Series is the offered-load series, one sample per tick; required,
	// at least two days long.
	Series []float64 `json:"series"`
	// TicksPerDay is the series' sampling density; required.
	TicksPerDay int `json:"ticks_per_day"`
	// HorizonDays, when positive, adds a peak-load projection that many
	// days ahead.
	HorizonDays int `json:"horizon_days,omitempty"`
}

func decodeForecast(body []byte) (ForecastRequest, error) {
	var req ForecastRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if req.TicksPerDay <= 0 {
		return req, fmt.Errorf("ticks_per_day must be positive, got %d", req.TicksPerDay)
	}
	if len(req.Series) < 2*req.TicksPerDay {
		return req, fmt.Errorf("series needs >= 2 days (%d ticks), got %d",
			2*req.TicksPerDay, len(req.Series))
	}
	if req.HorizonDays < 0 {
		return req, fmt.Errorf("horizon_days must be >= 0, got %d", req.HorizonDays)
	}
	return req, nil
}

// ForecastResult is the wire result of a forecast job.
type ForecastResult struct {
	Model        headroom.ForecastModel `json:"model"`
	GrowthPerDay float64                `json:"growth_per_day"`
	// PeakForecast is the projected peak load HorizonDays ahead (with a
	// 2-sigma headroom margin); present only when horizon_days was set.
	PeakForecast *float64 `json:"peak_forecast,omitempty"`
}

func (s *Server) computeForecast(ctx context.Context, req ForecastRequest) (any, *headroom.PartialError, error) {
	sess, err := headroom.New(context.Background())
	if err != nil {
		return nil, nil, err
	}
	model, err := sess.Forecast(ctx, req.Series, req.TicksPerDay)
	if err != nil {
		return nil, nil, err
	}
	res := ForecastResult{Model: model, GrowthPerDay: model.GrowthPerDay()}
	if req.HorizonDays > 0 {
		peak, err := model.PeakOverHorizon(len(req.Series), req.HorizonDays*req.TicksPerDay, 2)
		if err != nil {
			return nil, nil, err
		}
		res.PeakForecast = &peak
	}
	return res, nil, nil
}
