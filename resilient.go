package headroom

// Resilience layer: error classification (transient vs permanent), the
// retrying ResilientSource wrapper, and the typed partial-failure errors
// surfaced by sharded aggregation (see Session.Aggregate and
// WithPartialResults).
//
// The paper's always-on collection pipeline tolerates constant partial
// failure — lossy agents, stragglers, restarts — without corrupting
// aggregates. This file is the reproduction of that property: sources can
// fail and be retried per shard, whole pools can drop out of a run without
// aborting it, and every failure is classified and reported instead of
// tearing the pipeline down.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"headroom/internal/obs"
	"headroom/internal/retry"
)

// ErrTransient marks an error as retryable. Sources (and fault injectors)
// wrap errors with Transient to tell ResilientSource the failure is worth
// retrying; unmarked errors are treated as permanent. It is the module's one
// transient sentinel: the job queue and the shard dispatcher classify
// against the same value, so a transient failure that escapes one layer is
// retried by the next without re-marking.
var ErrTransient = retry.ErrTransient

// Transient wraps err so resilience layers retry it. A nil err returns nil.
func Transient(err error) error { return retry.Transient(err) }

// IsTransient reports whether err is marked retryable (wrapped by Transient
// or any wrapping satisfying errors.Is against ErrTransient).
func IsTransient(err error) bool { return retry.IsTransient(err) }

// PoolNamer is optionally implemented by sources that know which pools their
// records belong to. Sharded aggregation uses it to attribute shard failures
// to pool names in PoolError; a nil result means the pools are unknown.
type PoolNamer interface {
	PoolNames() []string
}

// PoolNames returns src's pool names when it implements PoolNamer, nil
// otherwise.
func PoolNames(src Source) []string {
	if pn, ok := src.(PoolNamer); ok {
		return pn.PoolNames()
	}
	return nil
}

// PoolError describes one failed shard of a partial aggregation: which
// shard, which pools it carried (when known), and why it failed.
type PoolError struct {
	// Shard is the shard's index in the fan-out.
	Shard int
	// Pools are the pool names the shard carried, when the shard's source
	// implements PoolNamer; nil otherwise.
	Pools []string
	// Err is the shard's failure.
	Err error
}

// Error renders the shard failure.
func (e PoolError) Error() string {
	if len(e.Pools) > 0 {
		return fmt.Sprintf("shard %d (pools %s): %v", e.Shard, strings.Join(e.Pools, ", "), e.Err)
	}
	return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e PoolError) Unwrap() error { return e.Err }

// PartialError reports a sharded aggregation that lost some shards. With
// WithPartialResults enabled, Session.Aggregate returns the merged result of
// the surviving shards together with a *PartialError listing the failed
// ones; callers detect it with errors.As and decide whether a degraded
// result is acceptable. When every shard failed the aggregator is nil.
type PartialError struct {
	// Failed lists the failed shards in shard order.
	Failed []PoolError
	// Shards is the total number of shards in the fan-out.
	Shards int
}

// Error summarises the partial failure.
func (e *PartialError) Error() string {
	pools := e.FailedPools()
	if len(pools) > 0 {
		return fmt.Sprintf("headroom: %d of %d shards failed (pools %s): %v",
			len(e.Failed), e.Shards, strings.Join(pools, ", "), e.Failed[0].Err)
	}
	return fmt.Sprintf("headroom: %d of %d shards failed: %v", len(e.Failed), e.Shards, e.Failed[0].Err)
}

// Unwrap exposes every shard failure to errors.Is/As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// FailedPools returns the sorted, deduplicated union of pool names across
// the failed shards.
func (e *PartialError) FailedPools() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range e.Failed {
		for _, p := range f.Pools {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// RetryPolicy configures ResilientSource. Zero fields take the documented
// defaults.
type RetryPolicy struct {
	// MaxAttempts bounds stream attempts (first try included); default 3.
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling per attempt
	// with seeded jitter; default 50 ms.
	Backoff time.Duration
	// MaxBackoff caps the per-retry sleep; default 2 s.
	MaxBackoff time.Duration
	// AttemptTimeout bounds each attempt. A stalled attempt is cancelled at
	// the timeout and retried as a transient failure. Zero means no
	// per-attempt deadline.
	AttemptTimeout time.Duration
	// Seed drives the backoff jitter deterministically; default 1. Sharded
	// sources derive a distinct jitter stream per shard.
	Seed int64
	// Classify overrides transient/permanent classification: return true to
	// retry err. Default: IsTransient.
	Classify func(error) bool
	// OnRetry, when set, observes every retry (attempt is the attempt that
	// just failed, starting at 1). Used for metrics.
	OnRetry func(attempt int, err error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Classify == nil {
		p.Classify = IsTransient
	}
	return p
}

// ResilientSource wraps src with retry-on-transient-failure semantics:
// failed streams are re-run with exponential backoff and seeded jitter, and
// records already delivered are skipped on the retry so the consumer sees
// every record exactly once, in order. The wrapped source must therefore be
// deterministic across attempts — true of every source in this module (all
// are seeded).
//
// Classification: errors marked Transient are retried, as are per-attempt
// timeouts (AttemptTimeout) and panics are converted to permanent errors.
// Errors returned by the consumer's emit callback and context cancellation
// are never retried.
//
// The wrapper preserves sharding: when src implements ShardedSource, each
// shard is wrapped with the same policy (distinct jitter seed per shard), so
// a transient failure in one pool's shard retries that shard alone. It also
// forwards PoolNamer.
func ResilientSource(src Source, policy RetryPolicy) Source {
	if src == nil {
		return nil
	}
	return &resilientSource{src: src, policy: policy.withDefaults()}
}

type resilientSource struct {
	src    Source
	policy RetryPolicy
}

// errConsumer distinguishes consumer emit errors from source failures.
type errConsumer struct{ err error }

func (e errConsumer) Error() string { return e.err.Error() }

func (r *resilientSource) Stream(ctx context.Context, emit func([]Record) error) error {
	p := r.policy
	rng := rand.New(rand.NewSource(p.Seed))
	delivered := 0
	backoff := p.Backoff
	for attempt := 1; ; attempt++ {
		attemptCtx := ctx
		cancel := context.CancelFunc(func() {})
		if p.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		skip := delivered
		err := safeStream(attemptCtx, r.src, func(run []Record) error {
			// Replay of an earlier attempt's records: drop them, cutting the
			// run they end in, so the consumer sees each record exactly once.
			n := min(skip, len(run))
			skip -= n
			if run = run[n:]; len(run) == 0 {
				return nil
			}
			if err := emit(run); err != nil {
				return errConsumer{err}
			}
			delivered += len(run)
			return nil
		})
		cancel()
		if err == nil {
			return nil
		}
		var ce errConsumer
		if errors.As(err, &ce) {
			return ce.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// An attempt-timeout expiry is a stall, retried as transient.
		stalled := p.AttemptTimeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if attempt >= p.MaxAttempts || !(stalled || p.Classify(err)) {
			return err
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		// Attribute the retry to the active shard span (if any), so a trace
		// shows which pool's stream was retried and how often.
		obs.ActiveSpan(ctx).AddInt("retries", 1)
		sleep := retry.Jitter(rng, backoff)
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > p.MaxBackoff {
			backoff = p.MaxBackoff
		}
	}
}

// safeStream runs one stream attempt, converting a panic in the source into
// a (permanent) error so one bad shard cannot take the process down.
func safeStream(ctx context.Context, src Source, emit func([]Record) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("headroom: source panicked: %v", v)
		}
	}()
	return src.Stream(ctx, emit)
}

// Shards wraps each of the underlying source's shards with the same policy,
// deriving a distinct jitter seed per shard. A non-shardable underlying
// source yields a single shard.
func (r *resilientSource) Shards(n int) []Source {
	sh, ok := r.src.(ShardedSource)
	if !ok || n <= 1 {
		return []Source{r}
	}
	subs := sh.Shards(n)
	if len(subs) <= 1 {
		return []Source{r}
	}
	out := make([]Source, len(subs))
	for i, sub := range subs {
		p := r.policy
		p.Seed = retry.DeriveSeed(p.Seed, int64(i))
		out[i] = &resilientSource{src: sub, policy: p}
	}
	return out
}

// PoolNames forwards the underlying source's pool attribution.
func (r *resilientSource) PoolNames() []string { return PoolNames(r.src) }

var (
	_ ShardedSource = (*resilientSource)(nil)
	_ PoolNamer     = (*resilientSource)(nil)
)
