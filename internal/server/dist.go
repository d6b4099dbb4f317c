package server

// Distributed scale-out: the worker half (the authenticated internal shard
// endpoint) and the coordinator half (the ShardFunc that sends each shard of a
// job's session to the peer fleet; the fan-out and combine around it are
// headroom.Session's, the same as on a single node).
//
// The contract that makes this safe is bit-identity: shards own disjoint
// (pool, datacenter) keys, sources are deterministic, a shard reduces to its
// pools' rows by the same code wherever it runs, and encoding/json writes a
// float64 in its shortest round-trip form — so a job distributed across N
// capserved processes returns byte-for-byte the result a single process
// would. Placement is rendezvous-hashed on each shard's pool names, dispatches
// reroute/hedge around slow or dead workers, and with partial results enabled
// a shard that exhausts every worker degrades the job instead of failing it.

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

// shardRequest is the wire request of POST /v1/internal/shard: the job's
// request plus the shard coordinates. The worker rebuilds the identical
// deterministic source from (days, seed, pools), streams only shard `shard` of
// `of`, and reduces it: to plan rows given plan fields, else to summary rows.
type shardRequest struct {
	PlanRequest
	Shard int `json:"shard"`
	Of    int `json:"of"`
}

// A worker answers 200 with the shard's rows as a JSON array: kilobytes, the
// samples stay where they were ingested. Provenance rides in these headers:
// the node for whoever debugs with curl -i, the record count for the
// coordinator's spans and stage events too.
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
// machinery, and return its rows. Registered only when a DistToken is set.
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

	sreq, err := decodeShard(r)
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

	// Plan fields make it a plan shard (resolvePlan leaves their seed non-zero);
	// a bare request is a simulate shard.
	sess, err := s.session(sreq.PlanRequest)
	var rows any
	var records int64
	switch {
	case err != nil:
	case sreq.PlanSeed != 0:
		rows, records, err = headroom.RunShard(ctx, sess, sreq.Shard, sreq.Of, reduceShard(sess, planRows))
	default:
		rows, records, err = headroom.RunShard(ctx, sess, sreq.Shard, sreq.Of, reduceShard(sess, summaryRows))
	}
	var body []byte
	if err == nil {
		body, err = json.Marshal(rows)
	}
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
	st.Span().SetAttr(obs.Int64("records", records), obs.Int("bytes", len(body)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(nodeHeader, s.hostname)
	w.Header().Set(recordsHeader, strconv.FormatInt(records, 10))
	_, _ = w.Write(body) // a failed write is the coordinator's to notice: it reroutes
}

// decodeShard reads and validates a shard request the way a submission is
// read and validated — readBody, strict decode, resolve — plus the shard
// coordinates; here any unreadable body is a plain bad request.
func decodeShard(r *http.Request) (sreq shardRequest, err error) {
	body, err := readBody(r)
	if err != nil {
		return sreq, errors.New("unreadable or oversized body")
	}
	if err := decode(body, &sreq); err != nil {
		return sreq, err
	}
	if sreq.Of < 1 || sreq.Shard < 0 || sreq.Shard >= sreq.Of {
		return sreq, fmt.Errorf("shard %d/%d out of range", sreq.Shard, sreq.Of)
	}
	if _, err := sreq.resolve(); err != nil {
		return sreq, err
	}
	if sreq.PlanConfig() != (headroom.PlanConfig{}) {
		err = sreq.resolvePlan()
	}
	return sreq, err
}

// reduceShard is a shard run in-process: ingested, then reduced to its rows on
// the same goroutine, so local shards reduce in parallel.
func reduceShard[R any](sess *headroom.Session, reduce reducer[R]) headroom.ShardFunc[[]R] {
	return func(ctx context.Context, sub headroom.Source, index, of int) ([]R, int64, error) {
		agg, records, err := headroom.IngestShard(ctx, sub, index, of)
		if err != nil {
			return nil, records, err
		}
		rows, err := reduce(ctx, sess, agg)
		return rows, records, err
	}
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

// shardFunc returns how this server executes the shards of req: in-process
// (reduceShard) on a single node, and on a coordinator by dispatching each
// shard to the worker fleet and decoding the rows that come back. Only that
// differs; splitting, fan-out, cancellation, row order and partial-results
// assembly are the session's, so a distributed job is byte-identical to — and
// fails and degrades exactly like — the local computation.
func shardFunc[R any](s *Server, sess *headroom.Session, req PlanRequest, reduce reducer[R]) headroom.ShardFunc[[]R] {
	if s.dist == nil {
		return reduceShard(sess, reduce)
	}
	var mu sync.Mutex
	var placements []ShardPlacement
	return func(ctx context.Context, sub headroom.Source, index, of int) (rows []R, _ int64, err error) {
		// `of` is the count the source actually split into (never more than
		// asked, fewer when it has fewer pools); every worker reproduces the
		// identical split from it.
		pools := headroom.PoolNames(sub)
		key := strings.Join(pools, ",")
		if key == "" {
			key = "shard-" + strconv.Itoa(index)
		}
		body, err := json.Marshal(shardRequest{PlanRequest: req, Shard: index, Of: of})
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
		if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			// A worker from before rows crossed the wire answers with an
			// encoded aggregate; it will on every retry, so this is permanent.
			return nil, 0, fmt.Errorf("shard %d: worker %s answered %q, not JSON rows: upgrade workers before coordinators", index, res.Worker, ct)
		}
		if err := json.Unmarshal(res.Body, &rows); err != nil {
			// Transient: the worker may answer cleanly when the job retries.
			return nil, 0, headroom.Transient(fmt.Errorf("shard %d: undecodable rows from %s: %w", index, res.Worker, err))
		}
		// 0, the function's "cannot count", if the worker sent no count.
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
		return rows, records, nil
	}
}

// DistStats exposes the worker-fleet breaker view for tests and /readyz.
func (s *Server) DistStats() (open, total int) {
	if s.dist == nil {
		return 0, 0
	}
	return s.dist.OpenBreakers()
}
