package breaker

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// testClock is a hand-advanced clock shared with the breaker under test.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newTestClock()
	var transitions []string
	b := New(Config{
		Threshold: 3,
		OpenFor:   10 * time.Second,
		Now:       clk.Now,
		OnTransition: func(from, to State) {
			transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
		},
	})

	// Closed passes requests; failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("Allow() = false while closed (i=%d)", i)
		}
		b.Failure()
	}
	if st := b.State(); st != Closed {
		t.Fatalf("state after 2 failures = %s, want closed", st)
	}

	// The third consecutive failure opens it.
	b.Allow()
	b.Failure()
	if st := b.State(); st != Open {
		t.Fatalf("state after 3 failures = %s, want open", st)
	}
	if b.Allow() {
		t.Fatal("Allow() = true while open")
	}

	// After the open interval the next Allow admits a single probe.
	clk.Advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("Allow() = false after open interval elapsed")
	}
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state = %s, want half_open", st)
	}
	b.Success()
	if st := b.State(); st != Closed {
		t.Fatalf("state after probe success = %s, want closed", st)
	}

	want := []string{"closed->open", "open->half_open", "half_open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Errorf("transition %d = %s, want %s", i, transitions[i], want[i])
		}
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newTestClock()
	b := New(Config{Threshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Failure()
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	// While the probe is in flight, nothing else gets through.
	if b.Allow() {
		t.Fatal("second probe admitted while first in flight")
	}
	b.Success()
	if st := b.State(); st != Closed {
		t.Fatalf("state = %s, want closed", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newTestClock()
	b := New(Config{Threshold: 1, OpenFor: 5 * time.Second, Now: clk.Now})
	b.Failure()
	clk.Advance(6 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Failure()
	if st := b.State(); st != Open {
		t.Fatalf("state after probe failure = %s, want open", st)
	}
	// The re-open starts a fresh interval.
	clk.Advance(3 * time.Second)
	if b.Allow() {
		t.Fatal("Allow() = true before fresh open interval elapsed")
	}
	clk.Advance(3 * time.Second)
	if !b.Allow() {
		t.Fatal("Allow() = false after fresh interval elapsed")
	}
}

func TestBreakerReleaseFreesProbeSlot(t *testing.T) {
	clk := newTestClock()
	b := New(Config{Threshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Failure()
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	// The admitted request never ran (e.g. queue full): Release must free
	// the probe slot so the next request can probe.
	b.Release()
	if !b.Allow() {
		t.Fatal("Allow() = false after Release freed the probe slot")
	}
}

func TestBreakerMultipleProbesToClose(t *testing.T) {
	clk := newTestClock()
	b := New(Config{Threshold: 1, OpenFor: time.Second, Probes: 2, Now: clk.Now})
	b.Failure()
	clk.Advance(2 * time.Second)
	b.Allow()
	b.Success()
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state after 1 of 2 probe successes = %s, want half_open", st)
	}
	if !b.Allow() {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if st := b.State(); st != Closed {
		t.Fatalf("state after 2 probe successes = %s, want closed", st)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := New(Config{Threshold: 2})
	b.Failure()
	b.Success()
	b.Failure()
	if st := b.State(); st != Closed {
		t.Fatalf("state = %s, want closed: success must reset the run", st)
	}
}

func TestBreakerRetryAfter(t *testing.T) {
	clk := newTestClock()
	b := New(Config{Threshold: 1, OpenFor: 10 * time.Second, Now: clk.Now})
	if d := b.RetryAfter(); d != 0 {
		t.Fatalf("RetryAfter while closed = %s, want 0", d)
	}
	b.Failure()
	if d := b.RetryAfter(); d != 10*time.Second {
		t.Fatalf("RetryAfter just opened = %s, want 10s", d)
	}
	clk.Advance(7 * time.Second)
	if d := b.RetryAfter(); d != 3*time.Second {
		t.Fatalf("RetryAfter = %s, want 3s", d)
	}
	clk.Advance(2900 * time.Millisecond)
	if d := b.RetryAfter(); d != time.Second {
		t.Fatalf("RetryAfter near expiry = %s, want the 1s floor", d)
	}
}

// TestNilBreakerIsDisabled pins the nil receiver: callers with breakers
// switched off hold a nil *Breaker and call it unconditionally.
func TestNilBreakerIsDisabled(t *testing.T) {
	var b *Breaker
	for _, step := range []struct {
		name string
		call func()
	}{
		{"fresh", func() {}},
		{"after failures", func() {
			for i := 0; i < 100; i++ {
				b.Failure()
			}
		}},
		{"after success", b.Success},
		{"after release", b.Release},
	} {
		step.call()
		if !b.Allow() {
			t.Errorf("%s: nil breaker rejected a request", step.name)
		}
		if got := b.State(); got != Closed {
			t.Errorf("%s: State = %s, want closed", step.name, got)
		}
		if got := b.RetryAfter(); got != 0 {
			t.Errorf("%s: RetryAfter = %s, want 0", step.name, got)
		}
	}
}
