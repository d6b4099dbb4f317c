package stats

import (
	"sync"
	"time"
)

// EWMA is an exponentially weighted mean of durations (alpha 0.2, seeded by
// the first observation) — the cheap running estimate behind capserved's
// load-derived Retry-After and the dispatcher's adaptive hedge delay. The
// zero value is ready to use; it is safe for concurrent use.
type EWMA struct {
	mu   sync.Mutex
	mean float64 // seconds
	n    int64
}

// Observe folds one duration into the mean; non-positive durations are
// ignored.
func (e *EWMA) Observe(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := d.Seconds()
	if e.n == 0 {
		e.mean = s
	} else {
		const alpha = 0.2
		e.mean = alpha*s + (1-alpha)*e.mean
	}
	e.n++
}

// Mean returns the current mean in seconds and the number of observations
// behind it (0 before the first).
func (e *EWMA) Mean() (seconds float64, n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mean, e.n
}
