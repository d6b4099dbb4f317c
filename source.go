package headroom

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/synth"
	"headroom/internal/trace"
)

// Source is a stream of trace records — the uniform input of every pipeline
// step. The methodology is deliberately black-box: it consumes only records,
// so any system able to produce them can be measured, planned and validated.
// Four implementations ship with the facade: the fleet simulator
// (NewSimSource), synthetic-workload replay (NewSynthSource, Step 3 of the
// paper), a trace file or pipe decoded as it streams (NewTraceSource) and
// in-memory trace replay (NewReplaySource, for records built by hand or
// already decoded).
type Source interface {
	// Stream emits every record through emit in deterministic order, a run
	// at a time: each call carries one or more consecutive records of the
	// stream (the simulator emits one (pool, datacenter, tick) step per
	// call), and the runs concatenated are the stream, never reordered. A
	// run is valid only during the call — the source may overwrite the slice
	// afterwards — so a consumer that keeps records copies them. Stream
	// honours ctx: when the context is cancelled mid-stream, Stream stops
	// and returns ctx.Err(). A non-nil error from emit aborts the stream
	// and is returned as-is.
	Stream(ctx context.Context, emit func(run []Record) error) error
}

// EachRecord adapts a per-record callback to Source.Stream's run callback:
// fn sees every record of every run, in order, and its first error aborts the
// stream.
func EachRecord(fn func(Record) error) func([]Record) error { return trace.EachRecord(fn) }

// ShardedSource is a Source that can split itself into disjoint sub-sources
// for parallel consumption, one (pool, datacenter) group per shard at most.
// The shards' record sets union to the full stream and every shard preserves
// the unsharded per-(pool, datacenter) emission order, which is what makes
// sharded aggregation bit-identical to sequential aggregation (see
// metrics.Aggregator.Merge).
type ShardedSource interface {
	Source
	// Shards partitions the source into at most n sub-sources. It may
	// return fewer (down to one) when the source has less parallelism
	// available than requested.
	Shards(n int) []Source
}

// simSource streams the fleet simulator: the paper's 100K-server production
// substitute.
type simSource struct {
	cfg     FleetConfig
	days    int
	actions []Action
}

// NewSimSource returns a Source that simulates the configured fleet for the
// given number of days, applying the scheduled actions. The source shards by
// pool: every stochastic stream in the simulator is seeded per pool name, so
// a pool's records are identical whether the fleet around it is simulated
// whole or split.
func NewSimSource(cfg FleetConfig, days int, actions ...Action) ShardedSource {
	return &simSource{cfg: cfg, days: days, actions: append([]Action(nil), actions...)}
}

func (s *simSource) Stream(ctx context.Context, emit func([]Record) error) error {
	sm, err := sim.New(s.cfg, s.actions...)
	if err != nil {
		return err
	}
	if s.days <= 0 {
		return fmt.Errorf("headroom: non-positive simulation horizon %d days", s.days)
	}
	return sm.RunSteps(ctx, s.days*sm.TicksPerDay(), emit)
}

// PoolNames lists the configured pools, attributing shard failures to pool
// names (see PoolNamer).
func (s *simSource) PoolNames() []string {
	out := make([]string, len(s.cfg.Pools))
	for i, pc := range s.cfg.Pools {
		out[i] = pc.Name
	}
	return out
}

func (s *simSource) Shards(n int) []Source {
	if n > len(s.cfg.Pools) {
		n = len(s.cfg.Pools)
	}
	if n <= 1 {
		return []Source{s}
	}
	// An invalid fleet must fail identically sharded or not: splitting a
	// config whose error spans pools (e.g. a duplicated pool name) could
	// otherwise yield shards that are individually valid. Let the unsharded
	// stream report the error.
	if err := s.cfg.Validate(); err != nil {
		return []Source{s}
	}
	// Whole pools are dealt heaviest first (weight: the pool's servers, which
	// its ingest time follows), each to the lightest shard so far, ties by
	// configuration order — a pure function of the configuration, so worker and
	// coordinator deal alike. Pools keep configuration order within a shard.
	weight := func(pc PoolConfig) int { return sim.TotalServers(FleetConfig{Pools: []PoolConfig{pc}}) }
	heavy := slices.Clone(s.cfg.Pools)
	slices.SortStableFunc(heavy, func(a, b PoolConfig) int { return weight(b) - weight(a) })
	load := make([]int, n)
	owner := make(map[string]int, len(heavy))
	for _, pc := range heavy {
		owner[pc.Name] = slices.Index(load, slices.Min(load))
		load[owner[pc.Name]] += weight(pc)
	}
	groups := make([][]sim.PoolConfig, n)
	for _, pc := range s.cfg.Pools {
		groups[owner[pc.Name]] = append(groups[owner[pc.Name]], pc)
	}
	actions := make([][]Action, n)
	for _, a := range s.actions {
		if shard, ok := owner[a.Pool]; ok {
			actions[shard] = append(actions[shard], a)
		} else {
			// Unknown pool: keep the action on shard 0 so sim.New reports
			// the same configuration error the unsharded stream would.
			actions[0] = append(actions[0], a)
		}
	}
	out := make([]Source, n)
	for i := range groups {
		sub := s.cfg
		sub.Pools = groups[i]
		out[i] = &simSource{cfg: sub, days: s.days, actions: actions[i]}
	}
	return out
}

// synthSource streams a synthetic-workload replay (Step 3): an offline pool
// driven through a reproducible offered-load sweep.
type synthSource struct {
	pool          PoolConfig
	profile       Profile
	ticksPerLevel int
	seed          int64
}

// NewSynthSource returns a Source that replays a synthetic workload profile
// (see BuildProfile in internal/synth) against an offline pool. Each of the
// profile's load levels runs for ticksPerLevel windows.
func NewSynthSource(pool PoolConfig, profile Profile, ticksPerLevel int, seed int64) Source {
	return &synthSource{pool: pool, profile: profile, ticksPerLevel: ticksPerLevel, seed: seed}
}

// PoolNames identifies the single pool the replay drives.
func (s *synthSource) PoolNames() []string { return []string{s.pool.Name} }

func (s *synthSource) Stream(ctx context.Context, emit func([]Record) error) error {
	recs, err := synth.ReplayContext(ctx, s.pool, s.profile, s.ticksPerLevel, s.seed)
	if err != nil {
		return err
	}
	return trace.EmitRuns(ctx, recs, emit)
}

// traceSource streams a CSV or JSON Lines trace straight from its reader.
type traceSource struct {
	r    io.Reader
	used atomic.Bool
}

// NewTraceSource returns a Source that decodes a trace written by
// trace.CSVWriter or trace.JSONLWriter (cmd/capsim's two formats) as it
// streams: the format is told from the first non-blank byte ('{' is JSON
// Lines, anything else must be the CSV header row), CSV is parsed in
// parallel and delivered in file order, and memory stays bounded by a few
// chunks of the input however long the trace is. A reader is consumed once,
// so the source is a single shard and a second Stream is an error.
func NewTraceSource(r io.Reader) Source {
	return &traceSource{r: r}
}

func (s *traceSource) Stream(ctx context.Context, emit func([]Record) error) error {
	if s.used.Swap(true) {
		return errors.New("headroom: a trace source streams its reader once")
	}
	return trace.Decode(ctx, s.r, emit)
}

// replaySource streams an in-memory record slice: records assembled by tests
// or decoded earlier.
type replaySource struct {
	recs []Record
}

// NewReplaySource returns a Source that replays the given records in order.
// The slice is not copied; the caller must not mutate it while the source is
// in use. The source shards by (pool, datacenter) key, preserving per-key
// record order.
func NewReplaySource(recs []Record) ShardedSource {
	return &replaySource{recs: recs}
}

func (s *replaySource) Stream(ctx context.Context, emit func([]Record) error) error {
	return trace.EmitRuns(ctx, s.recs, emit)
}

// PoolNames lists the distinct pool names in the trace, in first-seen order.
func (s *replaySource) PoolNames() []string {
	seen := map[string]bool{}
	var out []string
	prev := ""
	for i := range s.recs {
		// Traces come in long runs of one pool: look up only on a change.
		pool := s.recs[i].Pool
		if i > 0 && pool == prev {
			continue
		}
		prev = pool
		if !seen[pool] {
			seen[pool] = true
			out = append(out, pool)
		}
	}
	return out
}

func (s *replaySource) Shards(n int) []Source {
	// Pass 1: collect the key set only; records are not copied yet. Both
	// passes consult the map only when the key differs from the previous
	// record's, as metrics.Aggregator.AddAll does.
	seen := make(map[metrics.PoolKey]int)
	order := make([]metrics.PoolKey, 0, 8)
	var prev metrics.PoolKey
	for i := range s.recs {
		r := &s.recs[i]
		if i > 0 && r.Pool == prev.Pool && r.DC == prev.DC {
			continue
		}
		prev = metrics.PoolKey{DC: r.DC, Pool: r.Pool}
		if _, ok := seen[prev]; !ok {
			seen[prev] = 0 // shard assigned after sorting
			order = append(order, prev)
		}
	}
	if n > len(order) {
		n = len(order)
	}
	if n <= 1 {
		return []Source{s}
	}
	// Deterministic assignment independent of input order.
	sort.Slice(order, func(i, j int) bool {
		if order[i].Pool != order[j].Pool {
			return order[i].Pool < order[j].Pool
		}
		return order[i].DC < order[j].DC
	})
	for i, k := range order {
		seen[k] = i % n
	}
	// Pass 2: append each record straight to its shard. Per-key record
	// order is preserved, which is all Merge's bit-identity needs.
	shards := make([][]Record, n)
	shard := 0
	for i := range s.recs {
		r := &s.recs[i]
		if i == 0 || r.Pool != prev.Pool || r.DC != prev.DC {
			prev = metrics.PoolKey{DC: r.DC, Pool: r.Pool}
			shard = seen[prev]
		}
		shards[shard] = append(shards[shard], *r)
	}
	out := make([]Source, n)
	for i := range shards {
		out[i] = &replaySource{recs: shards[i]}
	}
	return out
}

var (
	_ ShardedSource = (*simSource)(nil)
	_ Source        = (*synthSource)(nil)
	_ Source        = (*traceSource)(nil)
	_ ShardedSource = (*replaySource)(nil)
	_ PoolNamer     = (*simSource)(nil)
	_ PoolNamer     = (*synthSource)(nil)
	_ PoolNamer     = (*replaySource)(nil)
)

// ErrNoSource reports an operation on a session configured with neither
// WithSource nor WithFleet. Callers building services on the library (such
// as cmd/capserved) can errors.Is against it to classify the failure as a
// configuration error rather than an execution error.
var ErrNoSource = errors.New("headroom: session has no record source (configure WithSource or WithFleet)")
