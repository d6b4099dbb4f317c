package headroom

// Resilience layer: error classification (transient vs permanent) and the
// typed partial-failure errors surfaced by sharded aggregation (see
// Session.Aggregate and WithPartialResults).
//
// The paper's always-on collection pipeline tolerates constant partial
// failure — lossy agents, stragglers, restarts — without corrupting
// aggregates. This file is the reproduction of that property: a shard whose
// source fails (or panics) fails alone, whole pools can drop out of a run
// without aborting it, and every failure is classified and reported instead
// of tearing the pipeline down. What is worth redoing is redone above the
// source: the job queue reruns a job that failed transiently, and a
// coordinator reroutes a shard whose worker failed.

import (
	"fmt"
	"sort"
	"strings"

	"headroom/internal/retry"
)

// ErrTransient marks an error as retryable. Sources (and fault injectors)
// wrap errors with Transient to tell the layers above that the failure is
// worth retrying; unmarked errors are treated as permanent. It is the
// module's one transient sentinel: the job queue and the shard dispatcher
// classify against the same value, so a transient shard failure that fails
// its job is retried by the queue without re-marking.
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
