// Package retry holds what every retrying layer of the module shares: the
// one sentinel that marks an error as worth retrying, the one jittered
// backoff draw, and the one retry loop, Do, with its one default schedule
// (Attempts, Backoff, MaxBackoff). It is a leaf (standard library only) so
// the record-source layer (headroom.ResilientSource), the job queue
// (internal/jobs) and the shard dispatcher (internal/dist) can all speak the
// same classification without importing each other; the first two retry
// through Do.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The default retry schedule: Attempts executions in all (the first
// included), the first retry sleeping a jittered Backoff, each later one
// double the one before, up to MaxBackoff.
const (
	Attempts   = 3
	Backoff    = 50 * time.Millisecond
	MaxBackoff = 2 * time.Second
)

// ErrTransient marks an error as retryable. Wrap with Transient (or any
// wrapping that satisfies errors.Is(err, ErrTransient)); unmarked errors are
// permanent.
var ErrTransient = errors.New("transient failure")

// Transient wraps err so retrying layers retry it. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Jitter returns a half-jittered sleep in [backoff/2, backoff] drawn from
// rng, so synchronized retries spread out while a seeded rng keeps the
// schedule reproducible. The caller serializes access to rng.
func Jitter(rng *rand.Rand, backoff time.Duration) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// Seeded returns a jitter draw (see Jitter) from its own rng seeded with
// seed; the draw is safe for concurrent use.
func Seeded(seed int64) func(time.Duration) time.Duration {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(backoff time.Duration) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return Jitter(rng, backoff)
	}
}

// Do runs attempt for n = 1, 2, … until it succeeds, fails with an error
// retryable rejects, or has run attempts times, and returns its last error.
// Between attempts it sleeps jitter(backoff), where backoff starts at first
// and doubles after each sleep up to MaxBackoff: one draw per retry. After a
// failed attempt it neither draws nor sleeps once ctx has ended, and returns
// that attempt's error. A sleep that cannot end before ctx's deadline is not
// begun: Do gives up with an error wrapping context.DeadlineExceeded and the
// last error. If ctx ends during a sleep, the error wraps ctx.Err() and the
// last error. onRetry, if not nil, sees each failed attempt n that is
// followed by a sleep, before the sleep.
func Do(ctx context.Context, attempts int, first time.Duration, jitter func(time.Duration) time.Duration,
	retryable func(error) bool, onRetry func(n int, err error), attempt func(n int) error) error {
	backoff := first
	for n := 1; ; n++ {
		err := attempt(n)
		if err == nil || n >= attempts || !retryable(err) || ctx.Err() != nil {
			return err
		}
		sleep := jitter(backoff)
		// A sleep the deadline cuts short ends in failure anyway: give up now
		// with the last real error rather than hold the caller until then.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= sleep {
			return fmt.Errorf("retry abandoned after %d attempts (backoff %s exceeds the deadline: %w): %w",
				n, sleep, context.DeadlineExceeded, err)
		}
		if onRetry != nil {
			onRetry(n, err)
		}
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w (after %d attempts: %w)", ctx.Err(), n, err)
		}
		backoff = min(2*backoff, MaxBackoff)
	}
}

// DeriveSeed mixes a stream index into a base seed (splitmix64 finalizer) so
// per-shard randomness — retry jitter, injected faults — is decorrelated but
// reproducible.
func DeriveSeed(seed, idx int64) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
