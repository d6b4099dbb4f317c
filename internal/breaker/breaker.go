// Package breaker implements the per-endpoint circuit breaker capserved
// uses to fast-fail submissions against an endpoint whose jobs keep
// failing: after a run of consecutive failures the breaker opens and
// requests are rejected immediately (HTTP 503 upstream) instead of queuing
// work that is doomed, protecting the worker pool for healthy endpoints.
// After a cool-down the breaker half-opens and lets a single probe through;
// a probe success closes it, a probe failure re-opens it.
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position.
type State int32

const (
	// Closed passes every request; consecutive failures are counted.
	Closed State = iota
	// Open fast-fails every request until the open interval elapses.
	Open
	// HalfOpen lets one probe request through at a time.
	HalfOpen
)

// String renders the state for metrics labels.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	}
	return "unknown"
}

// Config parameterizes a Breaker. Each caller names its own policy: a
// failure count and an open interval.
type Config struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	Threshold int
	// OpenFor is how long the breaker stays open before half-opening.
	OpenFor time.Duration
	// Now overrides the clock, for tests; default time.Now.
	Now func() time.Time
	// OnTransition, when set, observes every state change. It is called
	// without the breaker's lock held.
	OnTransition func(from, to State)
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker, safe for concurrent
// use. Construct with New.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	failures int  // consecutive failures while closed
	probing  bool // a half-open probe is in flight
	openedAt time.Time
}

// New builds a breaker in the Closed state.
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. In the Open state it returns
// false until the open interval elapses, then transitions to HalfOpen and
// admits a single probe; in HalfOpen it admits one probe at a time. Every
// Allow that returns true must be matched by Success, Failure or Release.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var transition func()
	defer func() {
		b.mu.Unlock()
		if transition != nil {
			transition()
		}
	}()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		transition = b.setStateLocked(HalfOpen)
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful request.
func (b *Breaker) Success() {
	b.mu.Lock()
	var transition func()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		// One successful probe closes the breaker.
		b.probing = false
		transition = b.setStateLocked(Closed)
		b.failures = 0
	}
	// A success landing while Open (a request admitted before the breaker
	// opened) is ignored: only probes close the breaker.
	b.mu.Unlock()
	if transition != nil {
		transition()
	}
}

// Failure records a failed request.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var transition func()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			transition = b.setStateLocked(Open)
			b.openedAt = b.cfg.Now()
		}
	case HalfOpen:
		// The probe failed: re-open for a fresh interval.
		b.probing = false
		transition = b.setStateLocked(Open)
		b.openedAt = b.cfg.Now()
	}
	b.mu.Unlock()
	if transition != nil {
		transition()
	}
}

// Release cancels an admitted request without recording an outcome — used
// when the request never ran (queue full, server draining) so a half-open
// probe slot is not leaked.
func (b *Breaker) Release() {
	b.mu.Lock()
	if b.state == HalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// State returns the breaker's current position, advancing Open to HalfOpen
// when the open interval has elapsed is deliberately NOT done here: only
// Allow transitions, so observation never mutates.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter returns how long a rejected caller should wait before
// retrying: the time until the breaker half-opens (minimum 1 s), or zero
// when the breaker is not open.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return 0
	}
	remain := b.cfg.OpenFor - b.cfg.Now().Sub(b.openedAt)
	if remain < time.Second {
		remain = time.Second
	}
	return remain
}

// setStateLocked transitions the breaker and returns the OnTransition
// callback to invoke after the lock is released (nil when unset).
func (b *Breaker) setStateLocked(to State) func() {
	from := b.state
	b.state = to
	if cb := b.cfg.OnTransition; cb != nil && from != to {
		return func() { cb(from, to) }
	}
	return nil
}
