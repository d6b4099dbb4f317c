package headroom

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"headroom/internal/core"
	"headroom/internal/experiments"
	"headroom/internal/forecast"
	"headroom/internal/metrics"
	"headroom/internal/obs"
	"headroom/internal/optimize"
	"headroom/internal/validate"
)

// Session is the configured entry point to the capacity-planning pipeline.
// A session carries the pieces every step shares — the record source, the
// shard count for parallel aggregation, the planning configuration and a
// base context bounding the session's lifetime — so the individual steps
// (Simulate, Plan, RunRSM, Validate, Forecast) stay single-purpose.
//
// Construct with New and functional options:
//
//	s, err := headroom.New(ctx,
//		headroom.WithFleet(cfg),
//		headroom.WithShards(8),
//	)
//	agg, err := s.Simulate(ctx, 1)
//	plans, err := s.Plan(ctx, agg)
//
// Every method takes a context.Context and returns promptly with ctx.Err()
// when it is cancelled; cancelling the context passed to New cancels every
// operation of the session.
//
// A Session is safe for concurrent use: its configuration is immutable after
// New.
type Session struct {
	base     context.Context
	fleet    FleetConfig
	hasFleet bool
	source   Source
	shards   int
	plan     PlanConfig
	seed     int64
	partial  bool
	observer StageObserver
}

// Option configures a Session under construction.
type Option func(*Session) error

// WithFleet sets the fleet the session simulates. The configuration is
// validated by New.
func WithFleet(cfg FleetConfig) Option {
	return func(s *Session) error {
		s.fleet = cfg
		s.hasFleet = true
		return nil
	}
}

// WithShards fixes the number of parallel shards used when aggregating a
// shardable source. n = 1 forces sequential aggregation; the default (no
// option, or n = 0) uses one shard per available CPU. Shard count never
// changes results: per-pool seeding makes sharded aggregation bit-identical
// to sequential.
func WithShards(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("headroom: negative shard count %d", n)
		}
		s.shards = n
		return nil
	}
}

// WithSource sets the session's record source, replacing the fleet
// simulator: a synthetic replay, an in-memory trace, or any custom
// implementation. Pipeline steps that consume records read from it.
func WithSource(src Source) Option {
	return func(s *Session) error {
		if src == nil {
			return errors.New("headroom: WithSource(nil)")
		}
		s.source = src
		return nil
	}
}

// WithPlanConfig sets the planning configuration used by Plan. Zero fields
// keep their documented defaults.
func WithPlanConfig(cfg PlanConfig) Option {
	return func(s *Session) error {
		s.plan = cfg
		return nil
	}
}

// WithPartialResults lets sharded aggregation tolerate failed shards: with
// it enabled, Simulate and Aggregate no longer abort the whole run when one
// shard (pool group) fails. Surviving shards aggregate normally and the
// failed ones are reported through a *PartialError (detect with errors.As),
// so callers can serve a degraded result instead of none; when every shard
// failed — always the case for a failing one-shard run — the aggregator is
// nil. Failed shards do not cancel their siblings. Without the option (the
// default), the first shard failure cancels the remaining shards promptly
// and the run fails whole with that failure. In both modes a panicking shard
// is isolated (the panic is recovered and reported as that shard's error)
// and cancellation of the caller's context fails the whole run.
func WithPartialResults(enabled bool) Option {
	return func(s *Session) error {
		s.partial = enabled
		return nil
	}
}

// ShardFunc computes one shard's product: sub is shard index of the `of`
// sub-sources the session's source split into, and the result is the product
// plus the records consumed (0 when it cannot count them). IngestShard is the
// in-process aggregate; a server reduces it to its pools' rows on the spot, and
// a coordinator ships (index, of) to a worker, which rebuilds the identical
// split and calls RunShard. Span, panic isolation, "aggregate.shard" event,
// sibling cancellation, combine order and *PartialError are the session's
// around all of them. It is called from one goroutine per shard.
type ShardFunc[T any] func(ctx context.Context, sub Source, index, of int) (T, int64, error)

// IngestShard is the ShardFunc of Simulate, Aggregate and AggregateShard:
// stream the sub-source into a fresh aggregator.
func IngestShard(ctx context.Context, sub Source, _, _ int) (*Aggregator, int64, error) {
	agg := metrics.NewAggregator()
	var n int64
	if err := sub.Stream(ctx, func(run []Record) error { agg.AddAll(run); n += int64(len(run)); return nil }); err != nil {
		return nil, n, err
	}
	return agg, n, nil
}

// StageEvent describes one completed pipeline stage, or one completed shard
// of a sharded stage.
type StageEvent struct {
	// Stage names the stage: "simulate", "aggregate", "merge", "plan",
	// "validate", "forecast", or "aggregate.shard" for per-shard events.
	Stage string
	// Pool carries the shard's pool names (comma-joined) on per-shard
	// events; empty otherwise.
	Pool string
	// Shard is the shard index on per-shard events, -1 otherwise.
	Shard int
	// Records is the number of records the stage consumed, when it streams
	// a source.
	Records int
	// Duration is the stage's wall time.
	Duration time.Duration
	// Degraded marks a partial-results aggregation that lost shards (or, on
	// a per-shard event, this shard failing inside a tolerant run).
	Degraded bool
	// Err is the stage's failure, nil on success.
	Err error
}

// StageObserver receives one event per completed pipeline stage and shard.
// Observers must be fast and safe for concurrent use: shard events fire
// from the aggregation goroutines.
type StageObserver func(StageEvent)

// WithObserver registers a stage observer on the session. Independent of
// the observer, every session records stage durations into the process-wide
// metrics registry (headroom_stage_duration_seconds) and emits spans when
// the calling context carries a tracer (internal/obs); the observer is the
// hook for callers that want per-stage attribution beyond that — custom
// metrics, logging, admission control.
func WithObserver(fn StageObserver) Option {
	return func(s *Session) error {
		s.observer = fn
		return nil
	}
}

// WithSeed sets the seed driving experiment regeneration (RunExperiment).
// The fleet's own seed lives in FleetConfig.Seed. Defaults to 1.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.seed = seed
		return nil
	}
}

// New builds a Session. ctx bounds the session's lifetime: cancelling it
// cancels every in-flight and future operation on the session, in addition
// to the per-call contexts the methods take.
func New(ctx context.Context, opts ...Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{base: ctx, seed: 1}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.hasFleet {
		if err := s.fleet.Validate(); err != nil {
			return nil, fmt.Errorf("headroom: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// opCtx merges a per-call context with the session's base context so that
// cancelling either one cancels the operation. The returned stop function
// must be called when the operation completes.
func (s *Session) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.base.Done() == nil {
		// The base context can never be cancelled; nothing to merge.
		return ctx, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.base, cancel)
	return merged, func() {
		stop()
		cancel()
	}
}

// shardCount resolves the configured shard count.
func (s *Session) shardCount() int {
	if s.shards > 0 {
		return s.shards
	}
	return runtime.GOMAXPROCS(0)
}

// Simulate runs the session's record source to completion and returns the
// aggregated observations — Step 0 of the methodology, the measurement the
// planner consumes.
//
// Without WithSource, the session's fleet is simulated for the given number
// of days with the scheduled actions (reduction experiments, deployments).
// With WithSource, the configured source is streamed instead, and days and
// actions must be zero: they parameterise the simulator only.
//
// Aggregation is sharded across goroutines when the source supports it (the
// fleet simulator shards per pool); the result is bit-identical to a
// sequential pass for the same seed.
func (s *Session) Simulate(ctx context.Context, days int, actions ...Action) (*Aggregator, error) {
	if s.source != nil {
		if days != 0 || len(actions) != 0 {
			return nil, errors.New("headroom: days and actions configure the fleet simulator; this session streams a custom source")
		}
		return simulateAs(ctx, s, s.source, 0, IngestShard, mergeAggregates)
	}
	if !s.hasFleet {
		return nil, ErrNoSource
	}
	return simulateAs(ctx, s, NewSimSource(s.fleet, days, actions...), days, IngestShard, mergeAggregates)
}

// SimulateRows is Simulate over the session's configured source, reduced where
// the data is: run's rows are each shard's product — local shards reduce in
// parallel, a remote one answers in kilobytes — and the result is the surviving
// shards' rows ordered by key's (pool, datacenter), the order Aggregator.Pools
// gives a merged aggregate. A failed shard contributes none.
func SimulateRows[R any](ctx context.Context, s *Session, run ShardFunc[[]R], key func(R) (pool, dc string)) ([]R, error) {
	return simulateAs(ctx, s, nil, 0, run, func(parts [][]R) []R {
		rows := slices.Concat(parts...)
		slices.SortFunc(rows, func(a, b R) int {
			pa, da := key(a)
			pb, db := key(b)
			return cmp.Or(cmp.Compare(pa, pb), cmp.Compare(da, db))
		})
		return rows
	})
}

// simulateAs wraps the fan-out in the "simulate" stage.
func simulateAs[T any](ctx context.Context, s *Session, src Source, days int, run ShardFunc[T], combine func([]T) T) (T, error) {
	ctx, st := obs.StartStage(ctx, "session.simulate", obs.StageSeconds("simulate"), obs.Int("days", days))
	out, err := aggregateAs(ctx, s, src, run, combine)
	s.end(st, StageEvent{Stage: "simulate", Shard: -1, Degraded: isPartialErr(err), Err: err})
	return out, err
}

// end closes one stage (or shard): st.End stamps attrs and ev.Err on the
// span and observes the duration series, and the duration it returns is the
// one the observer's event carries.
func (s *Session) end(st obs.Stage, ev StageEvent, attrs ...obs.Attr) {
	ev.Duration = st.End(ev.Err, attrs...)
	if s.observer != nil {
		s.observer(ev)
	}
}

// isPartialErr reports whether err is a degraded (partial-results) outcome.
func isPartialErr(err error) bool {
	var pe *PartialError
	return errors.As(err, &pe)
}

// Aggregate consumes a record source into an Aggregator, sharding across
// goroutines when the source implements ShardedSource and the session's
// shard count allows. A nil src uses the session's configured source.
func (s *Session) Aggregate(ctx context.Context, src Source) (*Aggregator, error) {
	return aggregateAs(ctx, s, src, IngestShard, mergeAggregates)
}

// mergeAggregates is Aggregate's combine: shards own disjoint (pool,
// datacenter) keys, so merging in shard order is bit-identical to one
// sequential pass over the survivors' records (nil when none survived).
func mergeAggregates(aggs []*Aggregator) *Aggregator {
	if len(aggs) == 0 {
		return nil
	}
	for _, agg := range aggs[1:] {
		aggs[0].Merge(agg)
	}
	return aggs[0]
}

// splitSource partitions src into at most n sub-sources; a source that
// cannot shard (or n <= 1) is a fan-out of one.
func splitSource(src Source, n int) []Source {
	if sh, ok := src.(ShardedSource); ok && n > 1 {
		if subs := sh.Shards(n); len(subs) > 0 {
			return subs
		}
	}
	return []Source{src}
}

// aggregateAs is the one fan-out: one goroutine and one private product per
// shard of src (nil: the session's source; a one-shard run is a fan-out of
// one), combined inside the "merge" stage. Whatever the product, the
// "aggregate" stage carries the records consumed across shards.
func aggregateAs[T any](ctx context.Context, s *Session, src Source, run ShardFunc[T], combine func([]T) T) (out T, err error) {
	if src == nil {
		src = s.source
	}
	if src == nil {
		return out, ErrNoSource
	}
	ctx, done := s.opCtx(ctx)
	defer done()
	subs := splitSource(src, s.shardCount())
	ctx, st := obs.StartStage(ctx, "session.aggregate", obs.StageSeconds("aggregate"), obs.Int("shards", len(subs)))

	products := make([]T, len(subs))
	errs := make([]error, len(subs))
	var records atomic.Int64
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			products[i], n, errs[i] = runShard(wctx, s, sub, i, len(subs), run)
			records.Add(n)
			if errs[i] != nil && !s.partial {
				cancel() // fail fast: stop sibling shards
			}
		}()
	}
	wg.Wait()

	_, mst := obs.StartStage(ctx, "session.merge", obs.StageSeconds("merge"), obs.Int("shards", len(subs)))
	out, err = mergeShards(ctx, s.partial, subs, products, errs, combine)
	degraded := isPartialErr(err)
	s.end(mst, StageEvent{Stage: "merge", Shard: -1, Degraded: degraded, Err: err})
	s.end(st, StageEvent{Stage: "aggregate", Shard: -1, Records: int(records.Load()), Degraded: degraded, Err: err},
		obs.Int64("records", records.Load()), obs.Bool("degraded", degraded))
	return out, err
}

// runShard is the only place a shard runs — fan-out, one-shard run, dist
// worker (RunShard) and dist coordinator alike — so every shard carries the
// same "simulate.pool" span (pool names, record count, retries, degraded
// flag), per-pool duration histogram and "aggregate.shard" event, and a
// panic becomes that shard's error instead of tearing the process down.
func runShard[T any](ctx context.Context, s *Session, sub Source, index, of int, run ShardFunc[T]) (out T, records int64, err error) {
	pools := strings.Join(PoolNames(sub), ",")
	ctx, st := obs.StartStage(ctx, "simulate.pool", obs.PoolSeconds(pools), obs.Str("pool", pools), obs.Int("shard", index))
	defer func() {
		if v := recover(); v != nil {
			var none T
			out, err = none, fmt.Errorf("headroom: shard %d panicked: %v", index, v)
		}
		degraded := s.partial && err != nil
		s.end(st, StageEvent{
			Stage: "aggregate.shard", Pool: pools, Shard: index,
			Records: int(records), Degraded: degraded, Err: err,
		}, obs.Int64("records", records), obs.Bool("degraded", degraded))
	}()
	return run(ctx, sub, index, of)
}

// mergeShards is the one end of every fan-out, local or distributed.
// Cancellation of the caller's context fails the whole run before any combine.
// Otherwise the survivors' products are combined in shard order (what keeps
// degraded results byte-identical wherever the shards ran) and failures are
// listed in shard order with their pools: as a *PartialError beside the
// combine (of none when every shard failed) with partial results on, as the
// first concrete failure with them off.
func mergeShards[T any](ctx context.Context, partial bool, subs []Source, products []T, errs []error, combine func([]T) T) (out T, err error) {
	if err := ctx.Err(); err != nil {
		return out, err
	}
	pe := &PartialError{Shards: len(subs)}
	survivors := make([]T, 0, len(subs))
	for i, err := range errs {
		if err != nil {
			pe.Failed = append(pe.Failed, PoolError{Shard: i, Pools: PoolNames(subs[i]), Err: err})
		} else {
			survivors = append(survivors, products[i])
		}
	}
	if len(pe.Failed) > 0 && !partial {
		// Prefer a concrete cause over the cascade cancellations it
		// triggered in sibling shards.
		for _, f := range pe.Failed {
			if !errors.Is(f.Err, context.Canceled) {
				return out, f.Err
			}
		}
		return out, pe.Failed[0].Err
	}
	if out = combine(survivors); len(pe.Failed) > 0 {
		return out, pe
	}
	return out, nil
}

// RunShard runs exactly one shard of the session's configured source — the
// source is split into `of` sub-sources and shard `index` is run exactly as
// the fan-out runs it — and returns its product and the records consumed. It
// is the worker half of distributed execution (internal/dist): sources are
// deterministic, so a worker handed (index, of) plus the request reproduces
// the coordinator's split, and its product is the one a local shard yields.
func RunShard[T any](ctx context.Context, s *Session, index, of int, run ShardFunc[T]) (out T, records int64, err error) {
	if s.source == nil {
		return out, 0, ErrNoSource
	}
	if of < 1 {
		return out, 0, fmt.Errorf("headroom: shard count %d, want >= 1", of)
	}
	if index < 0 || index >= of {
		return out, 0, fmt.Errorf("headroom: shard index %d out of range [0, %d)", index, of)
	}
	ctx, done := s.opCtx(ctx)
	defer done()
	subs := splitSource(s.source, of)
	if len(subs) != of {
		return out, 0, fmt.Errorf("headroom: source %T split into %d shards, coordinator expected %d", s.source, len(subs), of)
	}
	return runShard(ctx, s, subs[index], index, of, run)
}

// AggregateShard is RunShard with the shard's aggregate as the product.
func (s *Session) AggregateShard(ctx context.Context, index, of int) (*Aggregator, int64, error) {
	return RunShard(ctx, s, index, of, IngestShard)
}

// Stream streams a record source sequentially through emit, a run at a time
// (see Source.Stream; wrap a per-record callback with EachRecord), for
// workloads too large to aggregate in one pass or for writing traces to disk.
// A nil src uses the session's configured source.
func (s *Session) Stream(ctx context.Context, src Source, emit func(run []Record) error) error {
	if src == nil {
		src = s.source
	}
	if src == nil {
		return ErrNoSource
	}
	ctx, done := s.opCtx(ctx)
	defer done()
	return src.Stream(ctx, emit)
}

// Plan runs Steps 1-2 of the methodology over aggregated observations:
// metric validation (with refinement), server grouping, model fitting, and
// right-sizing each pool within the latency budget configured via
// WithPlanConfig.
func (s *Session) Plan(ctx context.Context, agg *Aggregator) ([]PoolPlan, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	ctx, st := obs.StartStage(ctx, "session.plan", obs.StageSeconds("plan"))
	plans, err := core.Plan(ctx, agg, s.plan)
	s.end(st, StageEvent{Stage: "plan", Shard: -1, Err: err}, obs.Int("pools", len(plans)))
	return plans, err
}

// RunRSM executes the iterative server-reduction experiment of §II-B2
// against a plant, stopping at the QoS limit. Cancellation propagates into
// the plant's observations.
func (s *Session) RunRSM(ctx context.Context, plant Plant, cfg RSMConfig) (RSMResult, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	return optimize.RunRSM(ctx, plant, cfg)
}

// Validate runs the offline A/B regression harness of §II-D: two identical
// pools, identical synthetic workload sweeps, one with the change.
func (s *Session) Validate(ctx context.Context, cfg ValidateConfig, change Change) (ValidateReport, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	ctx, st := obs.StartStage(ctx, "session.validate", obs.StageSeconds("validate"))
	report, err := validate.Run(ctx, cfg, change)
	s.end(st, StageEvent{Stage: "validate", Shard: -1, Err: err})
	return report, err
}

// Forecast fits a trend + daily-seasonality model to an offered-load
// series, the workload-trend input capacity planners combine with QoS
// requirements (§II).
func (s *Session) Forecast(ctx context.Context, series []float64, ticksPerDay int) (ForecastModel, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	if err := ctx.Err(); err != nil {
		return ForecastModel{}, err
	}
	_, st := obs.StartStage(ctx, "session.forecast", obs.StageSeconds("forecast"), obs.Int("points", len(series)))
	model, err := forecast.Fit(series, ticksPerDay)
	s.end(st, StageEvent{Stage: "forecast", Shard: -1, Err: err})
	return model, err
}

// ExperimentResult is a regenerated paper table or figure.
type ExperimentResult = experiments.Result

// ExperimentInfo identifies a registered paper artifact.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists the registered paper artifacts (tables, figures,
// ablations) in paper order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(experiments.Registry))
	for _, e := range experiments.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment regenerates one paper artifact by ID ("fig9", "table4",
// ...), driven by the session's seed (WithSeed). fast shortens observation
// horizons for tests and smoke runs.
func (s *Session) RunExperiment(ctx context.Context, id string, fast bool) (*ExperimentResult, error) {
	ctx, done := s.opCtx(ctx)
	defer done()
	exp, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return exp.Run(ctx, experiments.Config{Seed: s.seed, Fast: fast})
}
