// Package jobs is the async execution backbone of capserved: a bounded
// worker pool fed by a bounded queue, with per-job deadlines, retry with
// exponential backoff for transient failures, and job states queryable by
// ID (pending → running → done | failed).
//
// The queue is deliberately generic — a job is any func(ctx) (any, error) —
// so the server layer owns request decoding and result shaping while this
// package owns scheduling, lifecycle and draining.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"headroom/internal/obs"
	"headroom/internal/retry"
)

// State is a job's lifecycle phase.
type State string

const (
	// Pending means the job is queued but no worker has picked it up.
	Pending State = "pending"
	// Running means a worker is executing the job (or sleeping between
	// retry attempts).
	Running State = "running"
	// Done means the job finished successfully; its Result is set.
	Done State = "done"
	// Failed means the job exhausted its attempts or hit a permanent
	// error; its Err is set.
	Failed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// ErrQueueFull is returned by SubmitCtx when the pending queue is at capacity.
// Callers should surface it as backpressure (HTTP 503) rather than block.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by SubmitCtx after Close has begun.
var ErrClosed = errors.New("jobs: queue closed")

// Func is the work a job performs. The context carries the per-job deadline
// and is cancelled when the queue shuts down hard (drain deadline passed).
type Func func(ctx context.Context) (any, error)

// Job is one submitted unit of work. Fields are read through the accessor
// methods, which are safe for concurrent use while the job runs.
type Job struct {
	// ID is the queue-unique identifier ("j-000042").
	ID string
	// Kind is a caller-supplied label ("plan", "simulate"), used for
	// metrics and listings.
	Kind string

	fn   Func
	done chan struct{}

	// stage covers the job's whole lifetime (enqueue → terminal state), with
	// a span when the submitting context carried a trace; queued times the
	// wait for a worker; vals propagates the submit context's values (trace,
	// request id) into the worker, detached from its cancellation.
	stage  obs.Stage
	queued obs.Stage
	vals   context.Context

	mu        sync.Mutex
	state     State
	result    any
	err       error
	attempts  int
	created   time.Time
	started   time.Time
	finished  time.Time
	meta      map[string]any
	onFinish  func(*Job)
	onRunning func(*Job)
}

// TraceID returns the trace the job was submitted under, or "".
func (j *Job) TraceID() string { return j.stage.Span().TraceID() }

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID       string
	Kind     string
	State    State
	Result   any
	Err      error
	Attempts int
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// TraceID identifies the trace the job was submitted under, or "".
	TraceID string
	// Meta holds annotations attached during execution via Annotate —
	// e.g. which workers a distributed job's shards were placed on. Nil
	// when the job has none.
	Meta map[string]any
}

// Snapshot returns a consistent copy of the job's observable state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	var meta map[string]any
	if len(j.meta) > 0 {
		meta = make(map[string]any, len(j.meta))
		for k, v := range j.meta {
			meta[k] = v
		}
	}
	return Snapshot{
		ID: j.ID, Kind: j.Kind, State: j.state,
		Result: j.result, Err: j.err, Attempts: j.attempts,
		Created: j.created, Started: j.started, Finished: j.finished,
		TraceID: j.TraceID(),
		Meta:    meta,
	}
}

// annotate attaches one metadata key to the job.
func (j *Job) annotate(key string, value any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.meta == nil {
		j.meta = make(map[string]any)
	}
	j.meta[key] = value
}

// jobCtxKey carries the executing *Job in its execution context, so code
// deep inside a job (the distributed coordinator, notably) can annotate it
// without plumbing the Job through every layer.
type jobCtxKey struct{}

// Annotate attaches a metadata key/value to the job executing under ctx,
// visible in later Snapshots (and thus in job status responses). It reports
// whether ctx belonged to a running job; outside one it is a no-op, so
// library code may call it unconditionally.
func Annotate(ctx context.Context, key string, value any) bool {
	j, ok := ctx.Value(jobCtxKey{}).(*Job)
	if !ok || j == nil {
		return false
	}
	j.annotate(key, value)
	return true
}

// Wait blocks until the job is terminal or ctx is cancelled, returning the
// result or the job/context error.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = Running
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.attempts++
	cb := j.onRunning
	j.mu.Unlock()
	if cb != nil {
		cb(j)
	}
}

func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = Failed
		j.err = err
	} else {
		j.state = Done
		j.result = result
	}
	j.finished = time.Now()
	cb := j.onFinish
	j.mu.Unlock()
	close(j.done)
	if cb != nil {
		cb(j)
	}
}

// Config sizes a Queue. Zero values take the documented defaults.
type Config struct {
	// Workers is the worker-pool size; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending queue; SubmitCtx returns ErrQueueFull
	// beyond it. Default 4 × Workers.
	QueueDepth int
	// Timeout is the per-job deadline measured from the moment a worker
	// first picks the job up (it spans retries). Zero means no deadline.
	Timeout time.Duration
	// MaxAttempts bounds executions of a job whose error is transient
	// (see retry.Transient). Default 3; permanent errors never retry.
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling per attempt
	// with seeded jitter (each retry sleeps a uniform value in
	// [Backoff/2, Backoff] of the doubled base), so synchronized retries
	// cannot stampede the queue. Default 50 ms.
	Backoff time.Duration
	// Seed drives the backoff jitter deterministically; default 1.
	Seed int64
	// OnStateChange, when set, is invoked after every job transition
	// (running, done, failed). Used by the server for metrics.
	OnStateChange func(Snapshot)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Retained is how many terminal jobs stay addressable by ID: once that many
// later jobs have finished, Get no longer finds a finished job. Pending and
// running jobs are always kept.
const Retained = 4096

// Queue runs submitted jobs on a bounded worker pool and keeps them for
// lookup by ID: every non-terminal job, and the Retained most recently
// finished ones.
type Queue struct {
	cfg  Config
	pend chan *Job
	seq  atomic.Uint64
	hard context.Context // cancels running jobs past the drain deadline
	kill context.CancelFunc

	wg sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	recent  [Retained]string // ring of terminal job IDs, oldest overwritten
	retired int
	closed  bool

	rngMu sync.Mutex
	rng   *rand.Rand // seeded backoff jitter

	running atomic.Int64
}

// New starts a queue with cfg.Workers workers. Call Close to drain it.
func New(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	hard, kill := context.WithCancel(context.Background())
	q := &Queue{
		cfg:  cfg,
		pend: make(chan *Job, cfg.QueueDepth),
		hard: hard,
		kill: kill,
		jobs: make(map[string]*Job),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Workers returns the pool size.
func (q *Queue) Workers() int { return q.cfg.Workers }

// QueueDepth returns the pending queue's capacity bound.
func (q *Queue) QueueDepth() int { return q.cfg.QueueDepth }

// SubmitCtx enqueues fn as a new job labelled kind. It never blocks: when the
// pending queue is full it returns ErrQueueFull, and after Close it returns
// ErrClosed. The context's values (active trace span, request id) propagate
// into the job's execution context — detached from the caller's
// cancellation, since the job outlives the request that submitted it. When
// ctx carries a trace, the job records an enqueue→terminal span with
// queue-wait and run-time attributes, and its spans (and the session spans
// inside it) nest under the caller's.
func (q *Queue) SubmitCtx(ctx context.Context, kind string, fn Func) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &Job{
		ID:      fmt.Sprintf("j-%06d", q.seq.Add(1)),
		Kind:    kind,
		fn:      fn,
		done:    make(chan struct{}),
		state:   Pending,
		created: time.Now(),
	}
	j.vals, j.stage = obs.StartStage(ctx, "jobs.job", nil, obs.Str("kind", kind), obs.Str("job_id", j.ID))
	j.queued = obs.StartTimer(obs.QueueWaitSeconds)
	if cb := q.cfg.OnStateChange; cb != nil {
		j.onRunning = func(j *Job) { cb(j.Snapshot()) }
		j.onFinish = func(j *Job) { cb(j.Snapshot()) }
	}

	// The closed check, the table entry and the send are one critical
	// section: Close closes q.pend under the same lock, so a submission can
	// neither send on the closed channel nor leave an entry behind for a job
	// that was refused. The send has a default and never blocks.
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	select {
	case q.pend <- j:
		q.jobs[j.ID] = j
		return j, nil
	default:
		return nil, ErrQueueFull
	}
}

// Get returns the job with the given ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// retire records that j is terminal and evicts the terminal job that
// finished Retained jobs before it, bounding the table (and the closures,
// request contexts and traces finished jobs pin) on a long-running server.
func (q *Queue) retire(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	slot := &q.recent[q.retired%Retained]
	delete(q.jobs, *slot) // "" while the ring fills: deletes nothing
	*slot = j.ID
	q.retired++
}

// Stats is a point-in-time view of queue load.
type Stats struct {
	// Depth is the number of jobs waiting for a worker.
	Depth int
	// Running is the number of jobs currently executing.
	Running int
	// Workers is the pool size.
	Workers int
}

// Stats returns current queue load.
func (q *Queue) Stats() Stats {
	return Stats{Depth: len(q.pend), Running: int(q.running.Load()), Workers: q.cfg.Workers}
}

// Close drains the queue: it stops accepting submissions, lets queued and
// in-flight jobs finish, and returns when all workers have exited. If ctx
// is cancelled first, running jobs have their contexts cancelled (failing
// them promptly) and Close returns ctx.Err().
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.pend) // under q.mu: SubmitCtx sends under it
	}
	q.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		q.kill() // cancel in-flight job contexts
		<-drained
		return ctx.Err()
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.pend {
		q.running.Add(1)
		q.run(j)
		q.running.Add(-1)
	}
}

// run executes one job, retrying transient failures with exponential
// backoff until MaxAttempts or the job deadline.
func (q *Queue) run(j *Job) {
	// The job keeps the submitting request's values (its trace linkage) but
	// not its cancellation: what stops it is the queue's hard shutdown.
	ctx, cancel := context.WithCancel(context.WithoutCancel(j.vals))
	defer cancel()
	defer context.AfterFunc(q.hard, cancel)()
	if q.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, q.cfg.Timeout)
		defer cancel()
	}
	ctx = obs.WithJobID(ctx, j.ID)
	ctx = context.WithValue(ctx, jobCtxKey{}, j)

	// Queue-wait vs run split: how long the job sat pending, then how long
	// it executed (spanning retries).
	wait := j.queued.End(nil)
	j.stage.Span().Event("jobs.queued", j.created, wait, obs.Int64("queue_wait_ns", wait.Nanoseconds()))
	running := obs.StartTimer(obs.JobRunSeconds)
	defer func() {
		run := running.End(nil)
		snap := j.Snapshot()
		j.stage.End(snap.Err,
			obs.Str("state", string(snap.State)),
			obs.Int("attempts", snap.Attempts),
			obs.Int64("queue_wait_ns", wait.Nanoseconds()),
			obs.Int64("run_ns", run.Nanoseconds()),
		)
		// A retained job answers status queries only: drop the closure and
		// the submitting request's context (payload, connection) it pins.
		j.fn, j.vals = nil, nil
		q.retire(j)
	}()

	backoff := q.cfg.Backoff
	for attempt := 1; ; attempt++ {
		j.setRunning()
		attemptCtx, st := obs.StartStage(ctx, "jobs.attempt", nil, obs.Int("attempt", attempt))
		result, err := safeCall(attemptCtx, j.fn)
		st.End(err)
		if err == nil {
			j.finish(result, nil)
			return
		}
		retryable := retry.IsTransient(err) && attempt < q.cfg.MaxAttempts && ctx.Err() == nil
		if !retryable {
			j.finish(nil, err)
			return
		}
		sleep := q.jitter(backoff)
		// Cap cumulative retry time by the job deadline: a sleep that
		// cannot finish before the deadline would only burn a worker, so
		// give up now with the last real error.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= sleep {
			j.finish(nil, fmt.Errorf("jobs: retry abandoned after %d attempts (backoff %s exceeds job deadline): %w",
				attempt, sleep, err))
			return
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			j.finish(nil, fmt.Errorf("%w (after %d attempts: %w)", ctx.Err(), attempt, err))
			return
		}
		backoff *= 2
	}
}

// jitter returns a seeded half-jittered sleep in [backoff/2, backoff].
func (q *Queue) jitter(backoff time.Duration) time.Duration {
	q.rngMu.Lock()
	defer q.rngMu.Unlock()
	return retry.Jitter(q.rng, backoff)
}

// safeCall invokes fn, converting a panic into a permanent job failure so
// one bad request cannot take a worker (or the server) down.
func safeCall(ctx context.Context, fn Func) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return fn(ctx)
}
