// Package retry holds the one sentinel that marks an error as worth
// retrying. The one server-side retry is the shard dispatcher's
// (internal/dist) reroute of a failed shard to another worker; a job runs
// once, and a transient job failure is answered with 503 for the client to
// resubmit (internal/server). It is a leaf (standard library only) so every
// layer that produces or consumes the mark speaks the same classification
// without importing the others.
package retry

import (
	"errors"
	"fmt"
)

// ErrTransient marks an error as retryable. Wrap with Transient (or any
// wrapping that satisfies errors.Is(err, ErrTransient)); unmarked errors are
// permanent.
var ErrTransient = errors.New("transient failure")

// Transient wraps err to mark it retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// DeriveSeed mixes a stream index into a base seed (splitmix64 finalizer) so
// per-stream randomness — injected faults — is decorrelated but
// reproducible.
func DeriveSeed(seed, idx int64) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
