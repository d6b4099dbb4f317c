// Package retry holds what every retrying layer of the module shares: the
// one sentinel that marks an error as worth retrying, and the one jittered
// backoff draw. It is a leaf (standard library only) so the record-source
// layer (headroom.ResilientSource), the job queue (internal/jobs) and the
// shard dispatcher (internal/dist) can all speak the same classification
// without importing each other.
package retry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
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

// DeriveSeed mixes a stream index into a base seed (splitmix64 finalizer) so
// per-shard randomness — retry jitter, injected faults — is decorrelated but
// reproducible.
func DeriveSeed(seed, idx int64) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
