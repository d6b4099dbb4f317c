package server

// Chaos end-to-end tests: a real server with a deterministic fault injector
// under its record sources, exercising degraded serving, the circuit
// breaker lifecycle, readiness, and goroutine hygiene.

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"headroom/internal/breaker"
	"headroom/internal/faults"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
)

// chaosConfig sizes a partial-results server with fast source retries and
// the given injector under every job's record source.
func chaosConfig(inj *faults.Injector) Config {
	return Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 8, PartialResults: true,
		RetryAttempts: 3, RetryBackoff: time.Millisecond,
		Faults: inj,
	}
}

// waitFor polls cond until it holds or the deadline passes. Breaker state
// is fed by job-finish callbacks that can land just after an HTTP response,
// so assertions on it must tolerate that window.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitSimulate posts a simulate job with ?wait=true and decodes the
// terminal envelope.
func submitSimulate(t *testing.T, base, body string) (jobView, SimulateResult) {
	t.Helper()
	code, resp := postJSON(t, base+"/v1/simulate?wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, resp)
	}
	var v jobView
	if err := json.Unmarshal(resp, &v); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	if v.State != jobs.Done {
		t.Fatalf("job state = %s (%s), want done", v.State, v.Error)
	}
	var res SimulateResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	return v, res
}

// TestChaosDegradedServing is the acceptance chaos run: permanent faults in
// 2 of 8 pools, each pool its own shard. The degraded result must name
// exactly the two injured pools, the six survivors must be bit-identical to
// a fault-free run restricted to them, a fresh injector with the same seed
// must replay the exact same bytes, degraded results must never be served
// from the cache, and the server must drain cleanly without leaking a
// goroutine.
func TestChaosDegradedServing(t *testing.T) {
	leakcheck.Check(t)
	const seed = 42
	rules := []faults.Rule{{Kind: faults.Permanent, Pools: []string{"B", "F"}, At: []int{0}, Msg: "injected outage"}}
	// 8 pools across 8 shards: the deal (heaviest pool first, each to the
	// lightest shard) gives every pool its own shard, so a killed pool maps
	// to exactly one failed shard.
	body := `{"days":1,"seed":1,"pools":["A","B","C","D","E","F","G","H"]}`

	s := New(chaosConfig(faults.New(seed, rules...)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	waitFor(t, "listener", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})

	v1, degraded := submitSimulate(t, base, body)
	if !degraded.Degraded {
		t.Fatal("result not marked degraded")
	}
	if got := degraded.FailedPools; !reflect.DeepEqual(got, []string{"B", "F"}) {
		t.Fatalf("failed_pools = %v, want [B F]", got)
	}
	if len(degraded.Failures) != 2 {
		t.Fatalf("failures = %+v, want exactly the two injured shards", degraded.Failures)
	}
	for _, f := range degraded.Failures {
		if len(f.Pools) != 1 || f.Error == "" {
			t.Fatalf("failure = %+v, want single-pool shard with its error", f)
		}
	}
	var survivors []string
	seen := map[string]bool{}
	for _, p := range degraded.Pools {
		if !seen[p.Pool] {
			seen[p.Pool] = true
			survivors = append(survivors, p.Pool)
		}
	}
	sort.Strings(survivors)
	if want := []string{"A", "C", "D", "E", "G", "H"}; !reflect.DeepEqual(survivors, want) {
		t.Fatalf("surviving pools = %v, want %v", survivors, want)
	}

	// Degraded results are never cache hits: the identical resubmission
	// recomputes.
	v2, _ := submitSimulate(t, base, body)
	if v2.State != jobs.Done {
		t.Fatalf("resubmit state = %s", v2.State)
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 2 || st.Uncacheable != 2 {
		t.Fatalf("cache stats = %+v, want 2 uncached recomputations and no hits", st)
	}

	// The chaos metrics observed the injections and the degraded responses.
	_, mtext := getJSON(t, base+"/metrics")
	if n := metricValue(t, string(mtext), "capserved_injected_faults_total"); n < 2 {
		t.Errorf("injected_faults_total = %v, want >= 2", n)
	}
	if n := metricValue(t, string(mtext), `capserved_degraded_responses_total{kind="simulate"}`); n != 2 {
		t.Errorf("degraded_responses_total = %v, want 2", n)
	}

	// Clean drain: Serve must return nil after cancellation.
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve = %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}

	// Bit-identical survivors: a fault-free server over only the surviving
	// pools must produce exactly the same per-pool summaries.
	clean := New(chaosConfig(nil))
	tsClean := httptest.NewServer(clean.Handler())
	defer func() {
		tsClean.Close()
		clean.Shutdown(context.Background())
	}()
	_, cleanRes := submitSimulate(t, tsClean.URL, `{"days":1,"seed":1,"pools":["A","C","D","E","G","H"]}`)
	if cleanRes.Degraded {
		t.Fatal("fault-free run reported degraded")
	}
	if !reflect.DeepEqual(degraded.Pools, cleanRes.Pools) {
		t.Errorf("degraded run's surviving pools differ from the fault-free run")
	}

	// Reproducibility: a fresh injector with the same seed and rules
	// replays the identical degraded result, byte for byte.
	replay := New(chaosConfig(faults.New(seed, rules...)))
	tsReplay := httptest.NewServer(replay.Handler())
	defer func() {
		tsReplay.Close()
		replay.Shutdown(context.Background())
	}()
	vr, _ := submitSimulate(t, tsReplay.URL, body)
	if string(vr.Result) != string(v1.Result) {
		t.Error("same-seed replay produced different result bytes")
	}
}

// TestChaosBreakerLifecycle drives an endpoint's jobs into consecutive
// failure until its breaker opens, verifies fast-fail 503s with a derived
// Retry-After, then advances the clock so a half-open probe closes it.
func TestChaosBreakerLifecycle(t *testing.T) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		BreakerThreshold: 2, BreakerOpenFor: 10 * time.Second, Clock: clock,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// A valid-length forecast series containing a negative value passes
	// HTTP validation but fails the fit — a deterministic failing job.
	failing := func(mark int) string {
		series := make([]float64, 48)
		for i := range series {
			series[i] = float64(100 + mark)
		}
		series[40] = -5
		b, _ := json.Marshal(map[string]any{"series": series, "ticks_per_day": 24})
		return string(b)
	}

	for i := 0; i < 2; i++ {
		code, body := postJSON(t, ts.URL+"/v1/forecast?wait=true", failing(i))
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("failing job %d = %d: %s", i, code, body)
		}
	}
	waitFor(t, "breaker to open", func() bool {
		st, _ := s.BreakerState("forecast")
		return st == breaker.Open
	})

	// Open: submissions fast-fail 503 without queueing, with Retry-After
	// derived from the time until the half-open probe.
	code, body := postJSON(t, ts.URL+"/v1/forecast?wait=true", failing(2))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fast-fail = %d: %s", code, body)
	}
	_, mtext := getJSON(t, ts.URL+"/metrics")
	if n := metricValue(t, string(mtext), `capserved_breaker_fast_fails_total{kind="forecast"}`); n != 1 {
		t.Errorf("fast_fails = %v, want 1", n)
	}
	if n := metricValue(t, string(mtext), `capserved_breaker_transitions_total{kind="forecast",to="open"}`); n != 1 {
		t.Errorf("transitions to open = %v, want 1", n)
	}

	// Other endpoints are unaffected: breakers are per-endpoint.
	if st, _ := s.BreakerState("simulate"); st != breaker.Closed {
		t.Errorf("simulate breaker = %s, want closed", st)
	}

	// After the open interval a probe is admitted; its success closes the
	// breaker again.
	advance(11 * time.Second)
	good := buildForecastBody(t)
	code, body = postJSON(t, ts.URL+"/v1/forecast?wait=true", good)
	if code != http.StatusOK {
		t.Fatalf("probe = %d: %s", code, body)
	}
	waitFor(t, "breaker to close", func() bool {
		st, _ := s.BreakerState("forecast")
		return st == breaker.Closed
	})
	_, mtext = getJSON(t, ts.URL+"/metrics")
	if n := metricValue(t, string(mtext), `capserved_breaker_transitions_total{kind="forecast",to="half_open"}`); n != 1 {
		t.Errorf("transitions to half_open = %v, want 1", n)
	}
	if n := metricValue(t, string(mtext), `capserved_breaker_transitions_total{kind="forecast",to="closed"}`); n != 1 {
		t.Errorf("transitions to closed = %v, want 1", n)
	}
}

// TestChaosBreakerFastFailBurstNoLeak hammers an open breaker with
// concurrent submissions: every one must be rejected immediately and no
// goroutine may outlive the burst.
func TestChaosBreakerFastFailBurstNoLeak(t *testing.T) {
	leakcheck.Check(t)
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		BreakerThreshold: 1, BreakerOpenFor: time.Hour, Clock: clock,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	series := make([]float64, 48)
	for i := range series {
		series[i] = 100
	}
	series[40] = -5
	b, _ := json.Marshal(map[string]any{"series": series, "ticks_per_day": 24})
	if code, body := postJSON(t, ts.URL+"/v1/forecast?wait=true", string(b)); code != http.StatusUnprocessableEntity {
		t.Fatalf("failing job = %d: %s", code, body)
	}
	waitFor(t, "breaker to open", func() bool {
		st, _ := s.BreakerState("forecast")
		return st == breaker.Open
	})

	var wg sync.WaitGroup
	codes := make([]int, 30)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postJSON(t, ts.URL+"/v1/forecast", string(b))
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Fatalf("burst request %d = %d, want 503", i, code)
		}
	}
	if depth := s.queue.Stats().Depth; depth != 0 {
		t.Errorf("queue depth after burst = %d, want 0 (nothing queued)", depth)
	}
}

// TestFaultTransientSourceRetriedInvisibly checks the resilience layer hides
// a one-shot transient source fault completely: the job succeeds, the result
// is NOT degraded, and the retry is counted.
func TestFaultTransientSourceRetriedInvisibly(t *testing.T) {
	inj := faults.New(7, faults.Rule{Kind: faults.Transient, Pools: []string{"B"}, At: []int{0}})
	s := New(chaosConfig(inj))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	_, res := submitSimulate(t, ts.URL, `{"days":1,"seed":1,"pools":["B","D"]}`)
	if res.Degraded || len(res.FailedPools) != 0 {
		t.Fatalf("result = %+v, want complete result after in-source retry", res)
	}
	_, mtext := getJSON(t, ts.URL+"/metrics")
	if n := metricValue(t, string(mtext), "capserved_source_retries_total"); n < 1 {
		t.Errorf("source_retries_total = %v, want >= 1", n)
	}
	if st := s.CacheStats(); st.Uncacheable != 0 {
		t.Errorf("uncacheable = %d, want 0: a recovered result is cacheable", st.Uncacheable)
	}
}

// TestReadyzStates walks /readyz through ready → overloaded → draining.
func TestReadyzStates(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute, ReadyHighWatermark: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}

	// Occupy the single worker, then park one job in the queue: depth 1
	// reaches the watermark.
	block := make(chan struct{})
	release := func() { close(block) }
	if _, err := s.queue.SubmitCtx(context.Background(), "t", func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker busy", func() bool { return s.queue.Stats().Running == 1 })
	if _, err := s.queue.SubmitCtx(context.Background(), "t", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded readyz = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("overloaded readyz missing Retry-After")
	}
	var over struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&over)
	if over.Status != "overloaded" {
		t.Errorf("status = %q, want overloaded", over.Status)
	}
	release()
	waitFor(t, "queue to drain", func() bool {
		st := s.queue.Stats()
		return st.Depth == 0 && st.Running == 0
	})

	// Liveness stays OK while readiness flips to draining on shutdown.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body = getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d: %s", code, body)
	}
	var drain struct {
		Status string `json:"status"`
	}
	json.Unmarshal(body, &drain)
	if drain.Status != "draining" {
		t.Errorf("status = %q, want draining", drain.Status)
	}
	if code, _ := getJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness is separate)", code)
	}
}

// TestRetryAfterDerivedFromServiceRate pins the Retry-After formula: queue
// depth times observed mean service time over the worker pool, clamped.
func TestRetryAfterDerivedFromServiceRate(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 4})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// No completions yet: conservative 1 s fallback.
	if got := s.retryAfterSeconds(5); got != 1 {
		t.Errorf("retryAfter before any completion = %d, want 1", got)
	}
	// Mean 4 s over 2 workers with 3 queued: ceil((3+1)*4/2) = 8.
	s.rate.Observe(4 * time.Second)
	if got := s.retryAfterSeconds(3); got != 8 {
		t.Errorf("retryAfter = %d, want 8", got)
	}
	// Clamped to 120 s for pathological backlogs.
	if got := s.retryAfterSeconds(1000); got != 120 {
		t.Errorf("retryAfter backlog = %d, want 120 clamp", got)
	}
	// Fast service: sub-second drains still advertise at least 1 s.
	s2 := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 4})
	t.Cleanup(func() { s2.Shutdown(context.Background()) })
	s2.rate.Observe(10 * time.Millisecond)
	if got := s2.retryAfterSeconds(0); got != 1 {
		t.Errorf("retryAfter fast = %d, want 1 floor", got)
	}
}

// TestRetryAfterEdgeCases pins the boundary behavior of both Retry-After
// helpers: every path must yield a value in [1, 120] — including a
// pathological EWMA mean, where the old float→int conversion overflowed to
// minInt and advertised 1 s instead of the 120 s cap.
func TestRetryAfterEdgeCases(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 4})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// Zero depth with a cold EWMA: still the 1 s fallback.
	if got := s.retryAfterSeconds(0); got != 1 {
		t.Errorf("retryAfter cold+zero depth = %d, want 1", got)
	}
	// Pathological mean (simulating clock weirdness feeding the EWMA): the
	// estimate overflows float→int range and must clamp to 120, not wrap.
	s.rate.Observe(time.Duration(math.MaxInt64)) // ~292 years
	for i := 0; i < 8; i++ {
		s.rate.Observe(time.Duration(math.MaxInt64))
	}
	if got := s.retryAfterSeconds(1 << 30); got != 120 {
		t.Errorf("retryAfter with huge mean and depth = %d, want 120 cap", got)
	}
	if got := s.retryAfterSeconds(0); got != 120 {
		t.Errorf("retryAfter with huge mean, zero depth = %d, want 120 cap", got)
	}

	// retryAfterCeil: zero, negative and sub-second durations floor to 1;
	// long ones round up exactly.
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-5 * time.Second, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{90 * time.Second, 90},
	} {
		if got := retryAfterCeil(tc.d); got != tc.want {
			t.Errorf("retryAfterCeil(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// FuzzValidateRequest fuzzes the strict request decoder: no body may panic
// it, and any accepted request must satisfy the documented invariants.
func FuzzValidateRequest(f *testing.F) {
	f.Add(`{"pool":"A","loads":[10,20,30],"change":{"latency_delta_ms":3}}`)
	f.Add(`{"pool":"B","servers":2,"loads":[1.5],"ticks_per_level":4,"seed":9,"change":{}}`)
	f.Add(`{"pool":"","loads":[]}`)
	f.Add(`{"pool":"Z","loads":[10]}`)
	f.Add(`{"loads":[3,2,1],"pool":"A"}`)
	f.Add(`not json at all`)
	f.Add(`{"pool":"A","loads":[10],"unknown_field":true}`)
	f.Add(`{"pool":"A","loads":[1e308,2e308]}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeValidate([]byte(body))
		if err != nil {
			return
		}
		if req.Pool == "" {
			t.Fatalf("accepted request with empty pool: %q", body)
		}
		if len(req.Loads) == 0 {
			t.Fatalf("accepted request with no loads: %q", body)
		}
		for i := 1; i < len(req.Loads); i++ {
			if req.Loads[i] <= req.Loads[i-1] {
				t.Fatalf("accepted non-ascending loads %v: %q", req.Loads, body)
			}
		}
		if req.Servers < 1 || req.Seed == 0 {
			t.Fatalf("accepted request without defaults applied: %+v", req)
		}
	})
}
