package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"headroom/internal/leakcheck"
)

// testClock is a hand-advanced clock a worker's breaker reads through its
// now field.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

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

// breakerWorker builds a one-peer client over mux whose worker's breaker
// runs on a hand clock, and returns the client, that worker, the clock and
// the client's log as JSON lines.
func breakerWorker(t *testing.T, mux http.Handler) (*Client, *worker, *testClock, *bytes.Buffer) {
	t.Helper()
	var log bytes.Buffer
	c := newTestClient(t, mux, Config{
		Peers:      []string{"http://w1"},
		HedgeAfter: -1,
		Logger:     slog.New(slog.NewJSONHandler(&log, nil)),
	})
	clk := &testClock{now: time.Unix(1000, 0)}
	w := c.workers["http://w1"]
	w.now = clk.Now
	return c, w, clk, &log
}

// transitionsLogged lists the breaker transitions in log, as "from->to".
func transitionsLogged(t *testing.T, log *bytes.Buffer) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec struct{ Msg, Peer, From, To string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg != "dist: worker breaker transition" {
			continue
		}
		if rec.Peer != "http://w1" {
			t.Errorf("transition logged for peer %q, want http://w1", rec.Peer)
		}
		out = append(out, rec.From+"->"+rec.To)
	}
	return out
}

func TestDistBreakerLifecycle(t *testing.T) {
	_, w, clk, log := breakerWorker(t, newHostMux())

	// Closed passes dispatches; failures below the threshold keep it closed.
	for i := 0; i < breakerThreshold-1; i++ {
		if !w.allow() {
			t.Fatalf("allow() = false while closed (i=%d)", i)
		}
		w.failure()
	}
	if st := w.breakerState(); st != breakerClosed {
		t.Fatalf("state after %d failures = %s, want closed", breakerThreshold-1, st)
	}

	// The threshold-th consecutive failure opens it.
	w.allow()
	w.failure()
	if st := w.breakerState(); st != breakerOpen {
		t.Fatalf("state after %d failures = %s, want open", breakerThreshold, st)
	}
	if w.allow() {
		t.Fatal("allow() = true while open")
	}

	// After the open interval the next allow admits a single probe.
	clk.Advance(breakerOpenFor + time.Second)
	if !w.allow() {
		t.Fatal("allow() = false after open interval elapsed")
	}
	if st := w.breakerState(); st != breakerHalfOpen {
		t.Fatalf("state = %s, want half_open", st)
	}
	w.success()
	if st := w.breakerState(); st != breakerClosed {
		t.Fatalf("state after probe success = %s, want closed", st)
	}

	want := []string{"closed->open", "open->half_open", "half_open->closed"}
	if got := transitionsLogged(t, log); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transitions = %v, want %v", got, want)
	}
}

// openBreaker fails w's breaker open with threshold consecutive failures.
func openBreaker(t *testing.T, w *worker) {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		w.allow()
		w.failure()
	}
	if st := w.breakerState(); st != breakerOpen {
		t.Fatalf("state after %d failures = %s, want open", breakerThreshold, st)
	}
}

func TestDistBreakerHalfOpenSingleProbe(t *testing.T) {
	_, w, clk, _ := breakerWorker(t, newHostMux())
	openBreaker(t, w)
	clk.Advance(breakerOpenFor + time.Second)
	if !w.allow() {
		t.Fatal("probe not admitted")
	}
	// While the probe is in flight, nothing else gets through.
	if w.allow() {
		t.Fatal("second probe admitted while first in flight")
	}
	w.success()
	if st := w.breakerState(); st != breakerClosed {
		t.Fatalf("state = %s, want closed", st)
	}
}

func TestDistBreakerProbeFailureReopens(t *testing.T) {
	_, w, clk, _ := breakerWorker(t, newHostMux())
	openBreaker(t, w)
	clk.Advance(breakerOpenFor + time.Second)
	if !w.allow() {
		t.Fatal("probe not admitted")
	}
	w.failure()
	if st := w.breakerState(); st != breakerOpen {
		t.Fatalf("state after probe failure = %s, want open", st)
	}
	// The re-open starts a fresh interval.
	clk.Advance(breakerOpenFor - 2*time.Second)
	if w.allow() {
		t.Fatal("allow() = true before fresh open interval elapsed")
	}
	clk.Advance(2 * time.Second)
	if !w.allow() {
		t.Fatal("allow() = false after fresh interval elapsed")
	}
}

func TestDistBreakerReleaseFreesProbeSlot(t *testing.T) {
	_, w, clk, _ := breakerWorker(t, newHostMux())
	openBreaker(t, w)
	clk.Advance(breakerOpenFor + time.Second)
	if !w.allow() {
		t.Fatal("probe not admitted")
	}
	// The admitted dispatch said nothing about the worker (a sibling won):
	// release must free the probe slot so the next dispatch can probe.
	w.release()
	if !w.allow() {
		t.Fatal("allow() = false after release freed the probe slot")
	}
}

func TestDistBreakerSuccessResetsFailureRun(t *testing.T) {
	_, w, _, _ := breakerWorker(t, newHostMux())
	for i := 0; i < breakerThreshold-1; i++ {
		w.failure()
	}
	w.success()
	for i := 0; i < breakerThreshold-1; i++ {
		w.failure()
	}
	if st := w.breakerState(); st != breakerClosed {
		t.Fatalf("state = %s, want closed: success must reset the run", st)
	}
}

// TestDistBreakerTransitionsCountedOnce drives one worker's breaker through
// its whole cycle by dispatching to it — closed → open after three failures,
// open → half-open after the open interval, a failed probe → open, then
// open → half-open → closed on a good probe — and requires each transition
// to be counted once on capserved_dist_breaker_transitions_total and logged
// once.
func TestDistBreakerTransitionsCountedOnce(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	down := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}
	mux.set("w1", down)
	c, w, clk, log := breakerWorker(t, mux)
	dispatch := func(wantOK bool) {
		t.Helper()
		if _, err := c.Dispatch(context.Background(), Shard{Key: "k"}); (err == nil) != wantOK {
			t.Fatalf("dispatch error = %v, want success %v", err, wantOK)
		}
	}

	for i := 0; i < breakerThreshold; i++ {
		dispatch(false)
	}
	dispatch(false) // skipped: the breaker is open
	clk.Advance(breakerOpenFor)
	dispatch(false) // the probe fails and re-opens the breaker
	clk.Advance(breakerOpenFor)
	mux.set("w1", okWorker("w1"))
	dispatch(true) // the probe succeeds and closes the breaker

	if st := w.breakerState(); st != breakerClosed {
		t.Fatalf("state = %s, want closed", st)
	}
	for to, want := range map[string]int64{"closed": 1, "open": 2, "half_open": 2} {
		series := fmt.Sprintf("capserved_dist_breaker_transitions_total{peer=%q,to=%q}", "http://w1", to)
		if got := metric(t, c, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	if got := metric(t, c, "capserved_dist_breaker_skips_total"); got != 1 {
		t.Errorf("breaker skips = %d, want 1", got)
	}
	want := []string{"closed->open", "open->half_open", "half_open->open", "open->half_open", "half_open->closed"}
	if got := transitionsLogged(t, log); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transition records = %v, want %v", got, want)
	}
}
