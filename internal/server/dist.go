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
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"headroom"
	"headroom/internal/dist"
	"headroom/internal/jobs"
	"headroom/internal/obs"
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
// exact binary wire format (application/octet-stream). Provenance rides in
// these response headers: the node for whoever debugs with curl -i, the
// record count for the coordinator's spans and stage events too.
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

// initDist builds the dist client, which registers the capserved_dist_*
// families it owns on this server's registry; called from New when
// Config.Peers is non-empty. Invalid distribution config is a deployment
// error, not a request error, so it panics like a bad flag would.
func (s *Server) initDist() {
	client, err := dist.New(dist.Config{
		Peers:        s.cfg.Peers,
		Token:        s.cfg.DistToken,
		ShardTimeout: s.cfg.ShardTimeout,
		HedgeAfter:   s.cfg.HedgeAfter,
		Clock:        s.cfg.Clock,
		Logger:       s.cfg.Logger,
		Registry:     s.reg,
	})
	if err != nil {
		panic(fmt.Sprintf("server: distributed config: %v", err))
	}
	s.dist = client
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

	sreq, cfg, err := decodeShard(r)
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

// decodeShard reads and validates a shard request the way a submission is
// read and validated — readBody, strict decode, resolve — plus the shard
// coordinates; here any unreadable body is a plain bad request.
func decodeShard(r *http.Request) (sreq shardRequest, cfg headroom.FleetConfig, err error) {
	body, err := readBody(r)
	if err != nil {
		return sreq, cfg, errors.New("unreadable or oversized body")
	}
	if err := decode(body, &sreq); err != nil {
		return sreq, cfg, err
	}
	if sreq.Of < 1 || sreq.Shard < 0 || sreq.Shard >= sreq.Of {
		return sreq, cfg, fmt.Errorf("shard %d/%d out of range", sreq.Shard, sreq.Of)
	}
	cfg, err = sreq.resolve()
	return sreq, cfg, err
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
		// 0, the runner's "cannot count", if the worker sent no count.
		records, _ := strconv.ParseInt(res.Header.Get(recordsHeader), 10, 64)
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
		return agg, records, nil
	}
}

// DistStats exposes the worker-fleet breaker view for tests and /readyz.
func (s *Server) DistStats() (open, total int) {
	if s.dist == nil {
		return 0, 0
	}
	return s.dist.OpenBreakers()
}
