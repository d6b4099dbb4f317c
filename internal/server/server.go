// Package server is the HTTP front-end of capserved: it exposes the
// capacity-planning pipeline (simulate, plan, validate, forecast) as an
// async job API backed by a bounded worker pool (internal/jobs) and a keyed
// result cache (internal/jobcache), and exports Prometheus text-format
// metrics without external dependencies.
//
// Endpoints:
//
//	POST /v1/simulate   submit a fleet-simulation job
//	POST /v1/plan       submit a simulate+plan job
//	POST /v1/validate   submit an offline A/B validation job
//	POST /v1/forecast   submit a workload-forecast job
//	GET  /v1/jobs/{id}  job state and, when done, its result
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining or overloaded)
//	GET  /metrics       Prometheus text exposition
//
// Submissions return 202 with a job envelope; pass ?wait=true (or a
// duration, ?wait=30s) to block until the job is terminal and receive the
// result inline. Identical requests are answered from the result cache and
// deduplicated in flight, so repeated what-if queries cost one simulation.
//
// Failure semantics: a failed job costs only its submitter, who gets 422 on
// ?wait (504 when the job ran out of its deadline); only the dist workers,
// the one remote dependency, sit behind circuit breakers. With partial results
// enabled, simulate/plan jobs that lose some pools return a degraded result
// listing the failed pools instead of failing whole; degraded results are
// never stored in the cache.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"headroom"
	"headroom/internal/dist"
	"headroom/internal/faults"
	"headroom/internal/jobcache"
	"headroom/internal/jobs"
	"headroom/internal/obs"
	"headroom/internal/obs/prom"
	"headroom/internal/stats"
)

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers sizes the job worker pool; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending job queue; default 4 × Workers.
	// Submissions beyond it receive 503.
	QueueDepth int
	// CacheSize bounds the result cache (number of results); default 128.
	CacheSize int
	// JobTimeout is the per-job deadline; default 5 minutes.
	JobTimeout time.Duration
	// Shards is the aggregation shard count passed to sessions
	// (0 = one per CPU). Shard count never changes results, so it is
	// excluded from cache keys.
	Shards int
	// DrainTimeout bounds graceful shutdown: connection draining plus job
	// draining; default 30 seconds.
	DrainTimeout time.Duration
	// PartialResults lets sharded simulate/plan jobs tolerate failed
	// pools: surviving pools aggregate into a degraded result listing the
	// failures instead of failing the whole job. Degraded results are
	// never cached.
	PartialResults bool
	// Peers enables distributed scale-out: simulate/plan shards are
	// dispatched to these capserved worker base URLs instead of aggregating
	// locally. Requires DistToken. Empty disables distribution.
	Peers []string
	// DistToken is the shared secret authenticating internal shard traffic
	// (X-Dist-Token). Setting it (even without Peers) makes this process
	// serve POST /v1/internal/shard as a worker.
	DistToken string
	// HedgeAfter tunes hedged shard dispatches: positive hedges after that
	// fixed delay, zero adapts to 2× the worker's EWMA latency, negative
	// disables hedging.
	HedgeAfter time.Duration
	// Faults, when set, injects deterministic faults into every job's
	// record source — the chaos-testing hook (see internal/faults). No flag
	// sets it; the chaos tests and internal/diffcheck do.
	Faults *faults.Injector
	// Logger receives lifecycle events as structured records; log lines
	// emitted inside a request or job carry its trace_id/span_id/job_id.
	// Default: discard.
	Logger *slog.Logger
	// Tracer retains recent request/job traces for GET /debug/traces.
	// Default: a ring of 128 traces.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(128)
	}
	return c
}

// maxBodyBytes bounds a request body (forecast series can be large).
const maxBodyBytes = 8 << 20

// Server wires handlers, the job queue, the result cache, the job-kind rows
// and metrics.
type Server struct {
	cfg     Config
	queue   *jobs.Queue
	cache   *jobcache.Cache
	reg     *prom.Registry
	mux     *http.ServeMux
	handler http.Handler
	// kinds holds one row per submission endpoint, in route order.
	kinds    []*jobKind
	readyHWM int
	draining atomic.Bool
	// rate is the mean job service time, so 503 responses can derive an
	// honest Retry-After from queue depth.
	rate stats.EWMA

	// Distributed scale-out (see dist.go): the dispatch client when this
	// process coordinates, the shard-work semaphore when it serves shards,
	// and the hostname stamped into job status and shard responses.
	dist     *dist.Client
	shardSem chan struct{}
	hostname string

	m serverMetrics
}

// serverMetrics holds the pre-registered metric series that belong to no one
// job kind (those are on the kind's row).
type serverMetrics struct {
	reqTotal    map[string]*prom.Counter   // by handler
	reqDuration map[string]*prom.Histogram // by handler
	badRequests *prom.Counter
	queueFull   *prom.Counter
	notReady    *prom.Counter
}

// jobKind is the one row a submission endpoint is defined by: its name (the
// route, the job label, the metric label), how a request body becomes a job
// and its series of the per-kind metric families. Routes, submission and
// completion accounting all index it.
type jobKind struct {
	name string
	// build decodes, validates and canonicalizes a request body and returns
	// the job that computes it plus the canonical request, the cache key.
	build func(body []byte) (jobs.Func, any, error)

	submitted *prom.Counter
	done      *prom.Counter
	failed    *prom.Counter
	degraded  *prom.Counter // degraded (partial) results served
}

// addKind appends the row of endpoint name, built from its typed halves:
// decode validates and canonicalizes a body into the request R; compute runs
// the job and returns its wire result plus, for a fleet job that lost pools,
// the *PartialError naming them.
func addKind[R any](s *Server, name string, decode func([]byte) (R, error),
	compute func(context.Context, R) (any, *headroom.PartialError, error)) {
	lbl := prom.Labels{"kind": name}
	k := &jobKind{
		name: name,
		submitted: s.reg.Counter("capserved_jobs_submitted_total",
			"Jobs accepted into the queue.", lbl),
		done: s.reg.Counter("capserved_jobs_completed_total",
			"Jobs finished, by outcome.", prom.Labels{"kind": name, "state": "done"}),
		failed: s.reg.Counter("capserved_jobs_completed_total",
			"Jobs finished, by outcome.", prom.Labels{"kind": name, "state": "failed"}),
		degraded: s.reg.Counter("capserved_degraded_responses_total",
			"Jobs that completed degraded: partial results after pool failures.", lbl),
	}
	k.build = func(body []byte) (jobs.Func, any, error) {
		req, err := decode(body)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) (any, error) {
			res, pe, err := compute(ctx, req)
			if err != nil {
				return nil, err
			}
			return s.finishResult(ctx, k, res, pe)
		}, req, nil
	}
	s.kinds = append(s.kinds, k)
}

// kind returns the row named name, nil for a job no endpoint submitted.
func (s *Server) kind(name string) *jobKind {
	for _, k := range s.kinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// New builds a Server and starts its worker pool. Call Shutdown (or Serve
// with a cancellable context) to drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: jobcache.New(cfg.CacheSize),
		reg:   prom.NewRegistry(),
		mux:   http.NewServeMux(),
	}
	s.queue = jobs.New(jobs.Config{
		Workers:       cfg.Workers,
		QueueDepth:    cfg.QueueDepth,
		Timeout:       cfg.JobTimeout,
		OnStateChange: s.onJobState,
	})
	// /readyz reports overloaded once the queue holds three quarters of its
	// depth bound.
	s.readyHWM = max(s.queue.QueueDepth()*3/4, 1)
	s.hostname, _ = os.Hostname()
	if s.hostname == "" {
		s.hostname = "local"
	}
	// Shard work bypasses the job queue; bound it at twice the worker pool
	// so a coordinator burst cannot starve this node's own jobs.
	s.shardSem = make(chan struct{}, 2*s.queue.Workers())
	addKind(s, "simulate", decodeSimulate, s.computeSimulate)
	addKind(s, "plan", decodePlan, s.computePlan)
	addKind(s, "validate", decodeValidate, s.computeValidate)
	addKind(s, "forecast", decodeForecast, s.computeForecast)
	s.initMetrics()
	if len(cfg.Peers) > 0 {
		s.initDist()
	}
	s.routes()
	s.handler = s.mux
	return s
}

// initMetrics registers the families that belong to no one job kind; it runs
// after the kind rows so the exposition keeps their families first.
func (s *Server) initMetrics() {
	m := &s.m
	m.reqTotal = map[string]*prom.Counter{}
	m.reqDuration = map[string]*prom.Histogram{}
	handlers := []string{"jobs", "healthz", "readyz", "metrics", "internal_shard"}
	for _, k := range s.kinds {
		handlers = append(handlers, k.name)
	}
	for _, h := range handlers {
		m.reqTotal[h] = s.reg.Counter("capserved_http_requests_total",
			"HTTP requests served, by handler.", prom.Labels{"handler": h})
		m.reqDuration[h] = s.reg.Histogram("capserved_request_duration_seconds",
			"HTTP request latency, by handler.", prom.Labels{"handler": h}, prom.DefBuckets)
	}
	m.badRequests = s.reg.Counter("capserved_bad_requests_total",
		"Requests rejected by validation.", nil)
	m.queueFull = s.reg.Counter("capserved_queue_rejections_total",
		"Submissions rejected because the job queue was full.", nil)
	m.notReady = s.reg.Counter("capserved_not_ready_total",
		"Readiness probes answered not-ready (draining or overloaded).", nil)
	s.reg.CounterFunc("capserved_injected_faults_total",
		"Faults injected by the chaos fault injector (0 when disabled).",
		func() float64 {
			if s.cfg.Faults == nil {
				return 0
			}
			return float64(s.cfg.Faults.Injected())
		})
	s.reg.CounterFunc("capserved_cache_uncacheable_total",
		"Computations whose (degraded) result was served but not cached.",
		func() float64 { return float64(s.cache.Stats().Uncacheable) })

	s.reg.Gauge("capserved_jobs_running", "Jobs currently executing.", nil,
		func() float64 { return float64(s.queue.Stats().Running) })
	s.reg.Gauge("capserved_queue_depth", "Jobs waiting for a worker.", nil,
		func() float64 { return float64(s.queue.Stats().Depth) })
	s.reg.Gauge("capserved_workers", "Worker-pool size.", nil,
		func() float64 { return float64(s.queue.Workers()) })
	s.reg.CounterFunc("capserved_cache_hits_total",
		"Job submissions answered from the result cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.CounterFunc("capserved_cache_misses_total",
		"Job submissions that computed a fresh result.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.CounterFunc("capserved_cache_deduped_total",
		"Job submissions that joined an identical in-flight computation.",
		func() float64 { return float64(s.cache.Stats().Shared) })
	s.reg.Gauge("capserved_cache_size", "Results currently cached.", nil,
		func() float64 { return float64(s.cache.Stats().Size) })
}

// onJobState feeds each finished job into the completion counters and the
// service-rate estimate behind Retry-After. The queue calls it once per job,
// with the terminal snapshot of a job that ran, so Started and Finished are
// both set.
func (s *Server) onJobState(snap jobs.Snapshot) {
	s.rate.Observe(snap.Finished.Sub(snap.Started))
	k := s.kind(snap.Kind)
	if k == nil {
		return
	}
	switch snap.State {
	case jobs.Done:
		k.done.Inc()
	case jobs.Failed:
		k.failed.Inc()
	}
}

// retryAfterSeconds derives the Retry-After hint for a 503: the estimated
// time to drain `depth` queued jobs across the worker pool at the observed
// mean service rate, clamped to [1 s, 120 s]. Before any job has completed
// the estimate falls back to 1 s.
func (s *Server) retryAfterSeconds(depth int) int {
	mean, n := s.rate.Mean()
	if n == 0 {
		return 1
	}
	workers := s.queue.Workers()
	if workers < 1 {
		workers = 1
	}
	// Clamp in the float domain: converting an out-of-range float64 to int is
	// implementation-defined (minInt on amd64), so a pathological EWMA mean
	// would otherwise wrap the estimate to the minimum instead of the cap.
	est := float64(depth+1) * mean / float64(workers)
	if !(est > 1) { // catches NaN as well as sub-second estimates
		return 1
	}
	if est >= 120 {
		return 120
	}
	return int(math.Ceil(est))
}

func (s *Server) routes() {
	for _, k := range s.kinds {
		s.mux.Handle("POST /v1/"+k.name, s.instrument(k.name, true, s.handleSubmit(k)))
	}
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs", true, http.HandlerFunc(s.handleJob)))
	// Probes and scrapes are counted and timed but not traced: a kubelet and
	// a Prometheus scraper would otherwise push job traces out of the ring.
	s.mux.Handle("GET /healthz", s.instrument("healthz", false, http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /readyz", s.instrument("readyz", false, http.HandlerFunc(s.handleReadyz)))
	s.mux.Handle("GET /metrics", s.instrument("metrics", false, http.HandlerFunc(s.handleMetrics)))
	if s.cfg.DistToken != "" {
		s.mux.Handle("POST "+dist.DefaultPath, s.instrument("internal_shard", true, http.HandlerFunc(s.handleInternalShard)))
	}
	// Debug endpoints are served raw: instrumenting them would add a trace
	// to the ring per /debug/traces view.
	s.mux.Handle("GET /debug/traces", tracesHandler(s.cfg.Tracer))
	s.mux.Handle("GET /debug/goroutines", goroutinesHandler())
}

// Handler returns the server's HTTP handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// instrument wraps a handler with the per-endpoint request counter and
// latency histogram, and roots a span for the request: the request id is
// taken from (or minted into) X-Request-Id, and, when traced, the trace id is
// echoed in X-Trace-Id so a client can pull the trace from /debug/traces. An
// untraced request's span is disabled and keeps no slot in the trace ring.
func (s *Server) instrument(name string, traced bool, h http.Handler) http.Handler {
	total, dur := s.m.reqTotal[name], s.m.reqDuration[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = obs.NewID()
		}
		ctx := r.Context()
		if traced {
			ctx = obs.WithTracer(ctx, s.cfg.Tracer)
		}
		ctx, st := obs.StartStage(ctx, "http."+name, dur,
			obs.Str("method", r.Method), obs.Str("path", r.URL.Path),
			obs.Str("request_id", reqID))
		w.Header().Set("X-Request-Id", reqID)
		if id := st.Span().TraceID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		h.ServeHTTP(w, r.WithContext(ctx))
		st.End(nil)
		total.Inc()
	})
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: it stops accepting, drains in-flight connections, drains the
// job queue, and returns nil on a clean drain. The drain window is
// Config.DrainTimeout.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	s.cfg.Logger.Info("listening",
		"addr", ln.Addr().String(), "workers", s.queue.Workers(), "cache", s.cfg.CacheSize)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	s.cfg.Logger.Info("draining", "timeout", s.cfg.DrainTimeout)
	s.draining.Store(true) // flips /readyz to 503 so load balancers stop sending
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := httpSrv.Shutdown(drainCtx)
	if qErr := s.queue.Close(drainCtx); err == nil {
		err = qErr
	}
	if s.dist != nil {
		s.dist.Close()
	}
	<-errCh // Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	s.cfg.Logger.Info("drained cleanly")
	return nil
}

// Shutdown drains the job queue directly, for callers using Handler with
// their own HTTP server (httptest).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.queue.Close(ctx)
	if s.dist != nil {
		s.dist.Close()
	}
	return err
}

// --- HTTP plumbing -------------------------------------------------------

// apiError is the uniform error body. TraceID correlates the failure with
// its trace in /debug/traces.
type apiError struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// render is the layout of every JSON body the API writes (job views, errors,
// probes, debug listings): json.Marshal's bytes with one value per line and
// no indentation (json.Indent with an empty prefix and indent), then a
// newline. Without indentation a value renders to the same bytes wherever it
// sits in a body, so a job's result is rendered once (finishResult) and
// copied into every view of the job (writeView).
func render(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, raw, "", ""); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := render(v) // errors, probes and debug listings: no float that JSON cannot hold
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// errBody builds the uniform error body carrying the request's trace id.
func errBody(r *http.Request, msg string) apiError {
	return apiError{Error: msg, TraceID: obs.TraceIDFrom(r.Context())}
}

func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.m.badRequests.Inc()
	writeJSON(w, http.StatusBadRequest, errBody(r, err.Error()))
}

// jobView is the wire representation of a job.
type jobView struct {
	JobID    string          `json:"job_id"`
	Kind     string          `json:"kind"`
	State    jobs.State      `json:"state"`
	TraceID  string          `json:"trace_id,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"` // writeView's placeholder for the stored result
	Error    string          `json:"error,omitempty"`
	// Retryable marks a failed job whose ?wait answered 503: its failure
	// was transient, and a resubmission recomputes it.
	Retryable bool `json:"retryable,omitempty"`
	// Node is the hostname of the coordinator that ran (or is running) the
	// job; Placement lists where each shard of a distributed job executed.
	Node      string           `json:"node"`
	Placement []ShardPlacement `json:"placement,omitempty"`
	Self      string           `json:"self"`
}

// viewOf builds the job view of snap and returns the job's stored result
// beside it; the view's Result is left for writeView to fill.
func (s *Server) viewOf(snap jobs.Snapshot) (jobView, viewResult) {
	v := jobView{
		JobID:   snap.ID,
		Kind:    snap.Kind,
		State:   snap.State,
		TraceID: snap.TraceID,
		Created: snap.Created,
		Node:    s.hostname,
		Self:    "/v1/jobs/" + snap.ID,
	}
	if pl, ok := snap.Meta[placementMetaKey].([]ShardPlacement); ok {
		v.Placement = pl
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		v.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		v.Finished = &t
	}
	var res viewResult
	if snap.State == jobs.Done {
		res, _ = snap.Result.(viewResult)
	}
	if snap.State == jobs.Failed && snap.Err != nil {
		v.Error = snap.Err.Error()
		v.Retryable = failedStatus(snap.Err) == http.StatusServiceUnavailable
	}
	return v, res
}

// resultKey is what the result placeholder encodes to inside a job view. It
// occurs nowhere else in one: encoding/json escapes every quote inside a
// string value, and no other field is named result.
var resultKey = []byte(`"result": 0`)

// writeView writes snap's job view: the bytes writeJSON would write for it,
// except that the result is copied from its stored view form, not encoded.
// The small envelope is rendered around a placeholder result, which the stored
// bytes then replace.
func (s *Server) writeView(w http.ResponseWriter, code int, snap jobs.Snapshot) {
	v, res := s.viewOf(snap)
	if res != nil {
		v.Result = json.RawMessage("0")
	}
	head, _ := render(v) // a view holds strings, times and ints: it always renders
	var tail []byte
	if res != nil {
		at := bytes.Index(head, resultKey) + len(resultKey) - 1
		head, tail = head[:at], head[at+1:]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(res)+len(tail)))
	w.WriteHeader(code)
	w.Write(head)
	w.Write(res)
	w.Write(tail)
}

// errBodyTooLarge is readBody's error for a body over maxBodyBytes.
var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBodyBytes)

// readBody reads a request body of at most maxBodyBytes; every endpoint that
// takes one reads it here and maps the error to its own status.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	if len(body) > maxBodyBytes {
		return nil, errBodyTooLarge
	}
	return body, nil
}

// handleSubmit decodes, validates and canonicalizes a request for kind k,
// then submits a job that computes through the result cache.
func (s *Server) handleSubmit(k *jobKind) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err == errBodyTooLarge {
			s.m.badRequests.Inc()
			writeJSON(w, http.StatusRequestEntityTooLarge, errBody(r, err.Error()))
			return
		}
		if err != nil {
			s.badRequest(w, r, err)
			return
		}
		compute, canonical, err := k.build(body)
		if err != nil {
			s.badRequest(w, r, err)
			return
		}
		// The cache key is the canonicalized request — defaults applied,
		// shard count excluded (sharding never changes results).
		key, err := jobcache.Key(k.name, canonical)
		if err != nil {
			s.badRequest(w, r, err)
			return
		}
		// SubmitCtx links the job's span tree under this request's trace;
		// the job outliving the request (async submit) keeps the linkage.
		j, err := s.queue.SubmitCtx(r.Context(), k.name, func(ctx context.Context) (any, error) {
			val, _, err := s.cache.Do(key, func() (any, error) { return compute(ctx) })
			return val, err
		})
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.m.queueFull.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(s.queue.Stats().Depth)))
			writeJSON(w, http.StatusServiceUnavailable, errBody(r, err.Error()))
			return
		case errors.Is(err, jobs.ErrClosed):
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(s.queue.Stats().Depth)))
			writeJSON(w, http.StatusServiceUnavailable, errBody(r, "server is draining"))
			return
		case err != nil:
			writeJSON(w, http.StatusInternalServerError, errBody(r, err.Error()))
			return
		}
		k.submitted.Inc()

		if wait, ok := parseWait(r.URL.Query().Get("wait")); ok {
			waitCtx := r.Context()
			if wait > 0 {
				var cancel context.CancelFunc
				waitCtx, cancel = context.WithTimeout(waitCtx, wait)
				defer cancel()
			}
			j.Wait(waitCtx)
			snap := j.Snapshot()
			switch snap.State {
			case jobs.Done:
				s.writeView(w, http.StatusOK, snap)
			case jobs.Failed:
				code := failedStatus(snap.Err)
				if code == http.StatusServiceUnavailable {
					w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(s.queue.Stats().Depth)))
				}
				s.writeView(w, code, snap)
			default: // timed out waiting: fall back to the async envelope
				s.writeView(w, http.StatusAccepted, snap)
			}
			return
		}
		s.writeView(w, http.StatusAccepted, j.Snapshot())
	})
}

// failedStatus is the status a failed job answers ?wait with: 504 when it ran
// out of its deadline; 503 when its error is transient (a shard that failed
// on every worker, an injected transient fault), which the client may
// resubmit, since a failed job is never cached; 422 for every other failure,
// an input the job could not compute. A job runs once: the client is the one
// retry layer above the shard reroute.
func failedStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case headroom.IsTransient(err):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// parseWait interprets the ?wait query parameter: absent/false → no wait,
// "true"/"1" → wait until the request context ends, a duration → wait at
// most that long.
func parseWait(v string) (time.Duration, bool) {
	switch v {
	case "":
		return 0, false
	case "true", "1":
		return 0, true
	case "false", "0":
		return 0, false
	}
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		return d, true
	}
	return 0, false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.queue.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody(r, fmt.Sprintf("no job %q", id)))
		return
	}
	s.writeView(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.queue.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": st.Workers,
		"running": st.Running,
		"depth":   st.Depth,
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: the process
// is alive but should not receive new traffic while it is draining or the
// pending queue is at the high watermark.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.queue.Stats()
	switch {
	case s.draining.Load():
		s.m.notReady.Inc()
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
		})
	case st.Depth >= s.readyHWM:
		s.m.notReady.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(st.Depth)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":         "overloaded",
			"depth":          st.Depth,
			"high_watermark": s.readyHWM,
		})
	case s.distDegraded():
		// Most of the worker fleet is unreachable: distributed jobs would
		// reroute everything onto the few survivors (or fail), so stop
		// taking new traffic until breakers start closing.
		open, total := s.DistStats()
		s.m.notReady.Inc()
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "degraded",
			"peers_open": open,
			"peers":      total,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ready",
			"depth":          st.Depth,
			"high_watermark": s.readyHWM,
		})
	}
}

// distDegraded reports whether more than half the configured distributed
// workers have an open circuit breaker — the /readyz "degraded" condition.
func (s *Server) distDegraded() bool {
	open, total := s.DistStats()
	return total > 0 && 2*open > total
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Server-owned capserved_* families first, then the process-wide
	// pipeline families (headroom_* stage and queue timings).
	s.reg.WriteText(w)
	prom.Default.WriteText(w)
}

// CacheStats exposes cache counters for tests.
func (s *Server) CacheStats() jobcache.Stats { return s.cache.Stats() }
