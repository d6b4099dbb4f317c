// Package dist fans one capacity-planning job out across a fleet of
// capserved processes. The pipeline is embarrassingly shard-parallel —
// shards own disjoint (pool, datacenter) keys and aggregator merges are
// bit-identical regardless of where a shard ran — so the coordinator can
// split a job's source into shards, ship each shard to a worker over HTTP,
// and combine what the workers return into the exact bytes a single-node run
// would have produced.
//
// The client half (this package) owns placement and the failure playbook:
//
//   - rendezvous (highest-random-weight) hashing assigns each shard an
//     owner and a stable fallback order over the static peer list;
//   - every dispatch carries a per-shard deadline;
//   - transient failures (network errors, 5xx) reroute the shard to the
//     next-ranked worker;
//   - a dispatch that outlives the worker's EWMA-tracked latency is hedged:
//     a duplicate is sent to the next worker and the first answer wins;
//   - per-worker circuit breakers (internal/breaker) stop traffic to a
//     worker whose dispatches keep failing, so a dead node costs one timed
//     attempt per open interval instead of one per shard.
//
// The server half is capserved's authenticated POST /v1/internal/shard
// endpoint (internal/server), which runs exactly one shard through the
// session machinery and returns its pools' rows.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"headroom/internal/breaker"
	"headroom/internal/obs"
	"headroom/internal/obs/prom"
	"headroom/internal/retry"
	"headroom/internal/stats"
)

// TokenHeader authenticates internal shard traffic between peers.
const TokenHeader = "X-Dist-Token"

// TraceHeader propagates the coordinator's trace id to workers, so a job's
// trace can be correlated with the remote shard spans it caused.
const TraceHeader = "X-Trace-Id"

// ShardHeader carries the shard index, for worker-side logging.
const ShardHeader = "X-Dist-Shard"

// DefaultPath is the internal shard endpoint every capserved worker serves.
const DefaultPath = "/v1/internal/shard"

// shardTimeout bounds one shard's dispatch end to end, across reroutes and
// hedges; a caller's earlier deadline still wins.
const shardTimeout = time.Minute

// maxResponseBytes bounds what a coordinator buffers from a worker per attempt
// (a shard's rows: kilobytes); it is the server's bound on a request body.
const maxResponseBytes = 8 << 20

// Config parameterizes a Client. Zero values take the documented defaults.
type Config struct {
	// Peers are the worker base URLs ("http://10.0.0.2:8080"). Required,
	// at least one.
	Peers []string
	// Token is the shared secret sent as X-Dist-Token. Required.
	Token string
	// Transport overrides the HTTP transport — tests and benchmarks use
	// Loopback. Default: a dedicated clone of http.DefaultTransport.
	Transport http.RoundTripper
	// HedgeAfter controls hedged requests: a positive duration hedges every
	// dispatch that is still unanswered after it; zero (the default) adapts
	// per worker, hedging after 2x the worker's EWMA latency once three
	// dispatches have been observed; negative disables hedging.
	HedgeAfter time.Duration
	// Clock overrides time.Now for the breakers, for tests.
	Clock func() time.Time
	// Logger receives dispatch lifecycle events; default discard.
	Logger *slog.Logger
	// Registry is where the client registers the capserved_dist_* families
	// it owns and counts into: a coordinator hands in the registry behind
	// its /metrics. Nil means a private one.
	Registry *prom.Registry
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Registry == nil {
		c.Registry = prom.NewRegistry()
	}
	return c
}

// Shard is one unit of distributable work: an opaque request body plus the
// shard coordinates and the placement key.
type Shard struct {
	// Key drives rendezvous placement. Shards keyed by stable content (the
	// pool names they carry) keep their placement across job resubmissions
	// and peer-list edits.
	Key string
	// Index and Of are the shard coordinates within the job.
	Index, Of int
	// Body is the request payload POSTed to the worker.
	Body []byte
}

// Result is a successful dispatch.
type Result struct {
	// Body is the worker's response payload, Header its response header.
	Body   []byte
	Header http.Header
	// Worker is the base URL of the worker that answered.
	Worker string
	// Hedged reports that the answer came from a hedged duplicate.
	Hedged bool
	// Attempts counts dispatches sent for this shard (reroutes and hedges
	// included).
	Attempts int
}

// ShardError is a failed dispatch: the shard could not be computed on any
// available worker (or failed permanently on one).
type ShardError struct {
	// Shard is the shard index within the job.
	Shard int
	// Key is the shard's placement key (its pool names).
	Key string
	// Attempts counts dispatches sent before giving up.
	Attempts int
	// Transient reports whether retrying the whole job later could succeed
	// (workers were unreachable or overloaded, rather than rejecting the
	// request as invalid).
	Transient bool
	// Err is the last underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("dist: shard %d (%s) failed after %d attempts: %v", e.Shard, e.Key, e.Attempts, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Is makes a transient ShardError satisfy errors.Is against the module's
// transient sentinel, so the job queue retries it without re-marking.
func (e *ShardError) Is(target error) bool { return e.Transient && target == retry.ErrTransient }

// WorkerError is a worker's HTTP-level rejection of a dispatch.
type WorkerError struct {
	Peer   string
	Status int
	Msg    string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %s: %d %s", e.Peer, e.Status, e.Msg)
}

// worker is what the client keeps per peer: its breaker, the latency the
// hedge delay adapts to, and its series of the per-peer metric families.
type worker struct {
	breaker     *breaker.Breaker
	lat         stats.EWMA // dispatch latency, the hedge delay's basis
	dispatched  *prom.Counter
	failures    *prom.Counter
	latency     *prom.Histogram
	transitions [3]*prom.Counter // by destination breaker.State
}

// Client dispatches shards to a static fleet of workers and owns the
// capserved_dist_* metric families: each is registered and counted here,
// where the event happens. Construct with New; a Client is safe for
// concurrent use.
type Client struct {
	cfg     Config
	http    *http.Client
	peers   []string
	workers map[string]*worker

	reroutes, hedges, hedgeWins, skips, exhausted *prom.Counter
}

// New validates the peer list and builds a Client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, errors.New("dist: no peers configured")
	}
	if cfg.Token == "" {
		return nil, errors.New("dist: missing shared token")
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("dist: peer %q is not an absolute http(s) URL", p)
		}
		if !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, errors.New("dist: no peers configured")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = http.DefaultTransport.(*http.Transport).Clone()
	}
	c := &Client{
		cfg:     cfg,
		http:    &http.Client{Transport: tr},
		peers:   peers,
		workers: make(map[string]*worker, len(peers)),
	}
	// A worker's breaker opens after breakerThreshold consecutive failed
	// dispatches and fast-fails for breakerOpenFor before it admits a probe.
	const breakerThreshold, breakerOpenFor = 3, 5 * time.Second
	reg := cfg.Registry
	for _, p := range peers {
		lbl := prom.Labels{"peer": p}
		w := &worker{
			dispatched: reg.Counter("capserved_dist_shards_dispatched_total",
				"Shard dispatches sent to a worker (reroutes and hedges included).", lbl),
			failures: reg.Counter("capserved_dist_shard_failures_total",
				"Shard dispatch attempts that failed, by worker.", lbl),
			latency: reg.Histogram("capserved_dist_shard_latency_seconds",
				"Successful shard dispatch latency, by worker.", lbl, prom.DefBuckets),
		}
		for _, to := range []breaker.State{breaker.Closed, breaker.Open, breaker.HalfOpen} {
			w.transitions[to] = reg.Counter("capserved_dist_breaker_transitions_total",
				"Worker circuit-breaker transitions, by destination state.",
				prom.Labels{"peer": p, "to": to.String()})
		}
		w.breaker = breaker.New(breaker.Config{
			Threshold: breakerThreshold,
			OpenFor:   breakerOpenFor,
			Now:       cfg.Clock,
			OnTransition: func(from, to breaker.State) {
				c.cfg.Logger.Info("dist: worker breaker transition",
					"peer", p, "from", from.String(), "to", to.String())
				w.transitions[to].Inc()
			},
		})
		reg.Gauge("capserved_dist_worker_breaker_state",
			"Worker circuit-breaker position (0 closed, 1 open, 2 half-open).", lbl,
			func() float64 { return float64(w.breaker.State()) })
		c.workers[p] = w
	}
	c.reroutes = reg.Counter("capserved_dist_reroutes_total",
		"Shards rerouted to a fallback worker after a transient failure.", nil)
	c.hedges = reg.Counter("capserved_dist_hedges_total",
		"Hedged (duplicate) shard dispatches launched for slow primaries.", nil)
	c.hedgeWins = reg.Counter("capserved_dist_hedge_wins_total",
		"Hedged dispatches that answered before the primary.", nil)
	c.skips = reg.Counter("capserved_dist_breaker_skips_total",
		"Candidate workers skipped because their breaker was open.", nil)
	c.exhausted = reg.Counter("capserved_dist_shards_exhausted_total",
		"Shards that failed on every available worker.", nil)
	reg.Gauge("capserved_dist_peers", "Configured distributed workers.", nil,
		func() float64 { return float64(len(c.peers)) })
	reg.Gauge("capserved_dist_peers_open", "Workers whose circuit breaker is open.", nil,
		func() float64 { open, _ := c.OpenBreakers(); return float64(open) })
	return c, nil
}

// OpenBreakers counts workers whose breaker is currently open, and the
// total worker count — the worker-fleet health signal /readyz reports.
func (c *Client) OpenBreakers() (open, total int) {
	for _, w := range c.workers {
		if w.breaker.State() == breaker.Open {
			open++
		}
	}
	return open, len(c.peers)
}

// Close releases idle transport connections.
func (c *Client) Close() {
	if ci, ok := c.http.Transport.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// attemptResult is one worker attempt's outcome.
type attemptResult struct {
	peer      string
	w         *worker
	hedged    bool
	body      []byte
	header    http.Header
	d         time.Duration
	err       error
	transient bool
	canceled  bool // the attempt was cancelled by the dispatch (winner elsewhere)
}

// Dispatch computes one shard on the fleet: it tries workers in rendezvous
// order for the shard's key, rerouting on transient failure, hedging slow
// attempts, and honouring the per-shard deadline. On success it returns the
// winning worker's response; on failure, a *ShardError whose Transient flag
// says whether retrying the job later might succeed.
func (c *Client) Dispatch(ctx context.Context, sh Shard) (Result, error) {
	dctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()

	order := Rank(sh.Key, c.peers)
	results := make(chan attemptResult, len(order))
	var cancels []context.CancelFunc
	defer func() {
		for _, cf := range cancels {
			cf()
		}
	}()
	next, inflight, attempts := 0, 0, 0

	// launch sends the shard to the next breaker-admitted candidate,
	// returning its row (nil when no candidate is left).
	launch := func(hedged bool) *worker {
		for next < len(order) {
			peer := order[next]
			next++
			w := c.workers[peer]
			if !w.breaker.Allow() {
				c.skips.Inc()
				continue
			}
			attempts++
			inflight++
			actx, acancel := context.WithCancel(dctx)
			cancels = append(cancels, acancel)
			w.dispatched.Inc()
			go func() { results <- c.send(actx, peer, w, sh, hedged) }()
			return w
		}
		return nil
	}

	primary := launch(false)
	if primary == nil {
		c.exhausted.Inc()
		return Result{}, &ShardError{
			Shard: sh.Index, Key: sh.Key, Transient: true,
			Err: errors.New("every worker's circuit breaker is open"),
		}
	}

	var hedgeC <-chan time.Time
	if d, ok := c.hedgeDelay(primary); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case res := <-results:
			inflight--
			if res.err == nil {
				res.w.latency.Observe(res.d.Seconds())
				if res.hedged {
					c.hedgeWins.Inc()
				}
				return Result{Body: res.body, Header: res.header, Worker: res.peer, Hedged: res.hedged, Attempts: attempts}, nil
			}
			if res.canceled {
				// Cancelled by the dispatch itself; the deadline case below
				// (or a sibling's result) decides the outcome.
				continue
			}
			res.w.failures.Inc()
			c.cfg.Logger.Warn("dist: shard attempt failed",
				"peer", res.peer, "shard", sh.Index, "hedged", res.hedged,
				"transient", res.transient, "error", res.err)
			lastErr = res.err
			if !res.transient {
				// A permanent rejection is the same on every worker; stop.
				return Result{}, &ShardError{Shard: sh.Index, Key: sh.Key, Attempts: attempts, Err: res.err}
			}
			if inflight == 0 {
				if launch(false) != nil {
					c.reroutes.Inc()
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(true) != nil {
				c.hedges.Inc()
			}
		case <-dctx.Done():
			return Result{}, &ShardError{
				Shard: sh.Index, Key: sh.Key, Attempts: attempts, Transient: true,
				Err: fmt.Errorf("shard deadline: %w", dctx.Err()),
			}
		}
	}

	c.exhausted.Inc()
	if lastErr == nil {
		lastErr = errors.New("no worker available")
	}
	return Result{}, &ShardError{Shard: sh.Index, Key: sh.Key, Attempts: attempts, Transient: true, Err: lastErr}
}

// send performs one worker attempt. Breaker accounting lives here so every
// admitted attempt records exactly one outcome: Success for a well-formed
// response (the worker is alive, even if it rejected the request), Failure
// for network errors, 5xx and attempt timeouts, and a neutral Release when
// the dispatch cancelled the attempt because a sibling won.
func (c *Client) send(ctx context.Context, peer string, w *worker, sh Shard, hedged bool) attemptResult {
	out := attemptResult{peer: peer, w: w, hedged: hedged}
	br := w.breaker
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+DefaultPath, bytes.NewReader(sh.Body))
	if err != nil {
		br.Release()
		out.err = fmt.Errorf("dist: build request for %s: %w", peer, err)
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TokenHeader, c.cfg.Token)
	req.Header.Set(ShardHeader, strconv.Itoa(sh.Index)+"/"+strconv.Itoa(sh.Of))
	if id := obs.TraceIDFrom(ctx); id != "" {
		req.Header.Set(TraceHeader, id)
	}

	resp, err := c.http.Do(req)
	out.d = time.Since(start)
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.Canceled):
			br.Release()
			out.err, out.canceled = ctx.Err(), true
		case ctx.Err() != nil: // attempt deadline: the worker was too slow
			br.Failure()
			out.err, out.transient = ctx.Err(), true
		default:
			br.Failure()
			out.err, out.transient = fmt.Errorf("dist: dispatch to %s: %w", peer, err), true
		}
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			// The dispatch cancelled this attempt mid-read because a sibling
			// won; the worker did nothing wrong, so the outcome is neutral —
			// charging a Failure here opens an innocent worker's breaker.
			br.Release()
			out.err, out.canceled = ctx.Err(), true
			return out
		}
		br.Failure()
		out.err, out.transient = fmt.Errorf("dist: read response from %s: %w", peer, err), true
		return out
	}
	if len(body) > maxResponseBytes {
		br.Failure()
		out.err = fmt.Errorf("dist: response from %s exceeds %d bytes", peer, maxResponseBytes)
		return out
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		br.Success()
		w.lat.Observe(out.d)
		out.body, out.header = body, resp.Header
		return out
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The worker is healthy; the request itself was rejected. Permanent.
		br.Success()
		out.err = &WorkerError{Peer: peer, Status: resp.StatusCode, Msg: errMsg(body)}
		return out
	default: // 5xx: the worker is overloaded or broken; reroutable.
		br.Failure()
		out.err = &WorkerError{Peer: peer, Status: resp.StatusCode, Msg: errMsg(body)}
		out.transient = true
		return out
	}
}

// errMsg extracts the "error" field of a JSON error body, falling back to a
// truncated raw body.
func errMsg(body []byte) string {
	var v struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &v); err == nil && v.Error != "" {
		return v.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// hedgeDelay resolves the hedge trigger for a dispatch to primary: fixed
// when configured, otherwise 2x the worker's EWMA latency once enough
// history exists, never below 1 ms.
func (c *Client) hedgeDelay(primary *worker) (time.Duration, bool) {
	switch {
	case c.cfg.HedgeAfter > 0:
		return c.cfg.HedgeAfter, true
	case c.cfg.HedgeAfter < 0:
		return 0, false
	}
	mean, n := primary.lat.Mean()
	if n < 3 {
		return 0, false
	}
	d := time.Duration(2 * mean * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}
