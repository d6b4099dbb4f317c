package server

// Distributed scale-out: the worker half (the authenticated internal shard
// endpoint) and the coordinator half (the ShardRunner that sends each shard
// of a job's session to the peer fleet; the fan-out and merge around it are
// headroom.Session's, the same as on a single node).
//
// The contract that makes this safe is bit-identity: shards own disjoint
// (pool, datacenter) keys, sources are deterministic, and the aggregator
// wire codec preserves every float64 bit — so a job distributed across N
// capserved processes returns byte-for-byte the result a single process
// would have computed. Placement is rendezvous-hashed on each shard's pool
// names, dispatches reroute/hedge around slow or dead workers, and with
// partial results enabled a shard that exhausts every worker degrades the
// job instead of failing it.

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"headroom"
	"headroom/internal/breaker"
	"headroom/internal/dist"
	"headroom/internal/jobs"
	"headroom/internal/obs"
	"headroom/internal/obs/prom"
)

// shardRequest is the wire request of POST /v1/internal/shard: the original
// simulate parameters plus the shard coordinates. The worker rebuilds the
// identical deterministic source from (days, seed, pools) and streams only
// shard `shard` of `of`.
type shardRequest struct {
	SimulateRequest
	Shard int `json:"shard"`
	Of    int `json:"of"`
}

// A worker answers 200 with the shard's aggregate as the raw body, in the
// exact binary wire format (application/octet-stream). Provenance, for
// whoever debugs with curl -i, rides in these response headers; the
// coordinator reads neither.
const (
	nodeHeader    = "X-Dist-Node"    // the worker's hostname
	recordsHeader = "X-Dist-Records" // records the shard consumed
)

// ShardPlacement records where one shard of a distributed job ran, surfaced
// in the job status JSON.
type ShardPlacement struct {
	Shard          int      `json:"shard"`
	Pools          []string `json:"pools,omitempty"`
	AssignedWorker string   `json:"assigned_worker"`
	Hedged         bool     `json:"hedged,omitempty"`
	Attempts       int      `json:"attempts,omitempty"`
}

// placementMetaKey is the jobs.Annotate key the coordinator stores shard
// placements under.
const placementMetaKey = "placement"

// distMetrics holds the coordinator-side capserved_dist_* series.
type distMetrics struct {
	dispatched  map[string]*prom.Counter   // by peer
	failures    map[string]*prom.Counter   // by peer
	latency     map[string]*prom.Histogram // by peer
	transitions map[string]map[breaker.State]*prom.Counter
	reroutes    *prom.Counter
	hedges      *prom.Counter
	hedgeWins   *prom.Counter
	skips       *prom.Counter
	exhausted   *prom.Counter
}

// initDist builds the dist client and its metrics; called from New when
// Config.Peers is non-empty. Invalid distribution config is a deployment
// error, not a request error, so it panics like a bad flag would.
func (s *Server) initDist() {
	client, err := dist.New(dist.Config{
		Peers:        s.cfg.Peers,
		Token:        s.cfg.DistToken,
		Transport:    s.cfg.DistTransport,
		ShardTimeout: s.cfg.ShardTimeout,
		HedgeAfter:   s.cfg.HedgeAfter,
		Clock:        s.cfg.Clock,
		Logger:       s.cfg.Logger,
		OnEvent:      s.onDistEvent,
	})
	if err != nil {
		panic(fmt.Sprintf("server: distributed config: %v", err))
	}
	s.dist = client

	m := &s.distM
	m.dispatched = map[string]*prom.Counter{}
	m.failures = map[string]*prom.Counter{}
	m.latency = map[string]*prom.Histogram{}
	m.transitions = map[string]map[breaker.State]*prom.Counter{}
	for _, peer := range client.Peers() {
		m.dispatched[peer] = s.reg.Counter("capserved_dist_shards_dispatched_total",
			"Shard dispatches sent to a worker (reroutes and hedges included).", prom.Labels{"peer": peer})
		m.failures[peer] = s.reg.Counter("capserved_dist_shard_failures_total",
			"Shard dispatch attempts that failed, by worker.", prom.Labels{"peer": peer})
		m.latency[peer] = s.reg.Histogram("capserved_dist_shard_latency_seconds",
			"Successful shard dispatch latency, by worker.", prom.Labels{"peer": peer}, prom.DefBuckets)
		byState := map[breaker.State]*prom.Counter{}
		for _, st := range []breaker.State{breaker.Closed, breaker.Open, breaker.HalfOpen} {
			byState[st] = s.reg.Counter("capserved_dist_breaker_transitions_total",
				"Worker circuit-breaker transitions, by destination state.",
				prom.Labels{"peer": peer, "to": st.String()})
		}
		m.transitions[peer] = byState
		peer := peer
		s.reg.Gauge("capserved_dist_worker_breaker_state",
			"Worker circuit-breaker position (0 closed, 1 open, 2 half-open).", prom.Labels{"peer": peer},
			func() float64 { return float64(client.BreakerState(peer)) })
	}
	m.reroutes = s.reg.Counter("capserved_dist_reroutes_total",
		"Shards rerouted to a fallback worker after a transient failure.", nil)
	m.hedges = s.reg.Counter("capserved_dist_hedges_total",
		"Hedged (duplicate) shard dispatches launched for slow primaries.", nil)
	m.hedgeWins = s.reg.Counter("capserved_dist_hedge_wins_total",
		"Hedged dispatches that answered before the primary.", nil)
	m.skips = s.reg.Counter("capserved_dist_breaker_skips_total",
		"Candidate workers skipped because their breaker was open.", nil)
	m.exhausted = s.reg.Counter("capserved_dist_shards_exhausted_total",
		"Shards that failed on every available worker.", nil)
	s.reg.Gauge("capserved_dist_peers", "Configured distributed workers.", nil,
		func() float64 { _, total := client.OpenBreakers(); return float64(total) })
	s.reg.Gauge("capserved_dist_peers_open", "Workers whose circuit breaker is open.", nil,
		func() float64 { open, _ := client.OpenBreakers(); return float64(open) })
}

// onDistEvent feeds dispatch lifecycle events into the dist metric series.
func (s *Server) onDistEvent(ev dist.Event) {
	m := &s.distM
	switch ev.Kind {
	case dist.EventDispatch:
		if c, ok := m.dispatched[ev.Peer]; ok {
			c.Inc()
		}
	case dist.EventSuccess:
		if h, ok := m.latency[ev.Peer]; ok {
			h.Observe(ev.Latency.Seconds())
		}
	case dist.EventFailure:
		if c, ok := m.failures[ev.Peer]; ok {
			c.Inc()
		}
	case dist.EventReroute:
		m.reroutes.Inc()
	case dist.EventHedge:
		m.hedges.Inc()
	case dist.EventHedgeWin:
		m.hedgeWins.Inc()
	case dist.EventSkip:
		m.skips.Inc()
	case dist.EventExhausted:
		m.exhausted.Inc()
	case dist.EventBreaker:
		if by, ok := m.transitions[ev.Peer]; ok {
			if c, ok := by[ev.To]; ok {
				c.Inc()
			}
		}
	}
}

// --- worker half ---------------------------------------------------------

// handleInternalShard serves POST /v1/internal/shard: authenticate, rebuild
// the deterministic source, run exactly one shard through the session
// machinery, and return the encoded aggregate. Registered only when a
// DistToken is configured.
func (s *Server) handleInternalShard(w http.ResponseWriter, r *http.Request) {
	if subtle.ConstantTimeCompare([]byte(r.Header.Get(dist.TokenHeader)), []byte(s.cfg.DistToken)) != 1 {
		writeJSON(w, http.StatusForbidden, errBody(r, "invalid or missing "+dist.TokenHeader))
		return
	}
	// Shard work bypasses the job queue (the coordinator already holds a
	// queue slot for the whole job), so a separate semaphore bounds it; at
	// capacity the worker answers 503 and the coordinator reroutes.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody(r, "shard capacity exhausted"))
		return
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil || int64(len(body)) > s.cfg.MaxBodyBytes {
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errBody(r, "unreadable or oversized body"))
		return
	}
	var sreq shardRequest
	if err := decode(body, &sreq); err != nil {
		s.badRequest(w, r, err)
		return
	}
	if sreq.Of < 1 || sreq.Shard < 0 || sreq.Shard >= sreq.Of {
		s.badRequest(w, r, fmt.Errorf("shard %d/%d out of range", sreq.Shard, sreq.Of))
		return
	}
	if err := sreq.Normalize(); err != nil {
		s.badRequest(w, r, err)
		return
	}
	cfg, err := sreq.Fleet()
	if err != nil {
		s.badRequest(w, r, err)
		return
	}

	// The coordinator's trace id rides in as a span attribute so operators
	// can hop from a job's trace to the worker-side shard spans. The stage
	// ends with whatever err holds when the handler returns.
	ctx, st := obs.StartStage(r.Context(), "dist.shard.serve", nil,
		obs.Int("shard", sreq.Shard), obs.Int("of", sreq.Of),
		obs.Str("coordinator_trace_id", r.Header.Get(dist.TraceHeader)))
	defer func() { st.End(err) }()

	src := s.wrapSource(headroom.NewSimSource(cfg, sreq.Days), sreq.Seed)
	sess, err := headroom.New(context.Background(), headroom.WithSource(src))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errBody(r, err.Error()))
		return
	}
	agg, records, err := sess.AggregateShard(ctx, sreq.Shard, sreq.Of)
	if err != nil {
		// Transient shard failures (and this worker shutting down) are the
		// coordinator's cue to reroute; anything else is permanent for this
		// request on every worker.
		if headroom.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeJSON(w, http.StatusServiceUnavailable, errBody(r, err.Error()))
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, errBody(r, err.Error()))
		return
	}
	enc, err := headroom.EncodeAggregator(agg)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errBody(r, err.Error()))
		return
	}
	st.Span().SetAttr(obs.Int64("records", records), obs.Int("bytes", len(enc)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(nodeHeader, s.hostname)
	w.Header().Set(recordsHeader, strconv.FormatInt(records, 10))
	_, _ = w.Write(enc) // a failed write is the coordinator's to notice: it reroutes
}

// wrapSource applies the fault injector and resilience layer to a raw
// source, exactly as single-node aggregation does, so a worker's shard
// behaves identically to the same shard run locally.
func (s *Server) wrapSource(src headroom.Source, seed int64) headroom.Source {
	if s.cfg.Faults != nil {
		src = s.cfg.Faults.Source(src)
	}
	if s.cfg.RetryAttempts > 0 {
		src = headroom.ResilientSource(src, headroom.RetryPolicy{
			MaxAttempts: s.cfg.RetryAttempts,
			Backoff:     s.cfg.RetryBackoff,
			Seed:        seed,
			OnRetry:     func(int, error) { s.m.sourceRetries.Inc() },
		})
	}
	return src
}

// --- coordinator half ----------------------------------------------------

// shardRunner returns how this server executes the shards of req: nil (the
// session's in-process default) on a single node, and on a coordinator a
// runner that dispatches each shard to the worker fleet and decodes the
// aggregate that comes back. Only that differs between the two; splitting,
// fan-out, cancellation, merge order and partial-results assembly are the
// session's, so a distributed job is byte-identical to — and fails and
// degrades exactly like — the local computation.
func (s *Server) shardRunner(req SimulateRequest) headroom.ShardRunner {
	if s.dist == nil {
		return nil
	}
	var mu sync.Mutex
	var placements []ShardPlacement
	return func(ctx context.Context, sub headroom.Source, index, of int) (_ *headroom.Aggregator, _ int64, err error) {
		// `of` is the count the source actually split into (never more than
		// asked, fewer when it has fewer pools); every worker reproduces the
		// identical split from it.
		pools := headroom.PoolNames(sub)
		key := strings.Join(pools, ",")
		if key == "" {
			key = "shard-" + strconv.Itoa(index)
		}
		body, err := json.Marshal(shardRequest{SimulateRequest: req, Shard: index, Of: of})
		if err != nil {
			return nil, 0, err
		}
		ctx, st := obs.StartStage(ctx, "dist.shard", nil, obs.Int("shard", index), obs.Str("pool", key))
		defer func() { st.End(err) }()
		res, err := s.dist.Dispatch(ctx, dist.Shard{Key: key, Index: index, Of: of, Body: body})
		if err != nil {
			return nil, 0, err
		}
		st.Span().SetAttr(obs.Str("worker", res.Worker),
			obs.Bool("hedged", res.Hedged), obs.Int("attempts", res.Attempts))
		agg, err := headroom.DecodeAggregator(res.Body)
		if err != nil {
			// Transient: the worker may answer cleanly when the job retries.
			return nil, 0, headroom.Transient(fmt.Errorf("shard %d: undecodable aggregate from %s: %w", index, res.Worker, err))
		}
		// Re-annotate on every completion, in shard order, so the job status
		// shows placements as they land.
		mu.Lock()
		placements = append(placements, ShardPlacement{
			Shard: index, Pools: pools, AssignedWorker: res.Worker,
			Hedged: res.Hedged, Attempts: res.Attempts,
		})
		sort.Slice(placements, func(a, b int) bool { return placements[a].Shard < placements[b].Shard })
		jobs.Annotate(ctx, placementMetaKey, append([]ShardPlacement(nil), placements...))
		mu.Unlock()
		return agg, 0, nil // records are counted on the worker's span
	}
}

// DistStats exposes the worker-fleet breaker view for tests and /readyz.
func (s *Server) DistStats() (open, total int) {
	if s.dist == nil {
		return 0, 0
	}
	return s.dist.OpenBreakers()
}
