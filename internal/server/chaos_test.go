package server

// Chaos end-to-end tests: a real server with a deterministic fault injector
// under its record sources, exercising degraded serving, failed jobs that
// cost only their submitter, readiness, and goroutine hygiene.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"headroom/internal/faults"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
	"headroom/internal/synth"
)

// chaosConfig sizes a partial-results server with the given injector under
// every job's record source.
func chaosConfig(inj *faults.Injector) Config {
	return Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 8, PartialResults: true,
		Faults: inj,
	}
}

// waitFor polls cond until it holds or the deadline passes. Completion
// counters are fed by job-finish callbacks that can land just after an HTTP
// response, so assertions on them must tolerate that window.
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

// TestChaosBadInputDoesNotLockOutOthers: jobs that fail on their own input
// cost only their submitter. After five failed validates, a validate whose
// answer is already cached and a fresh well-formed one both answer 200.
func TestChaosBadInputDoesNotLockOutOthers(t *testing.T) {
	s, ts := newTestServer(t)
	const cached = `{"pool":"B","servers":2,"loads":[100,200],"ticks_per_level":4}`
	if code, body := postJSON(t, ts.URL+"/v1/validate?wait=true", cached); code != http.StatusOK {
		t.Fatalf("warm-up validate = %d: %s", code, body)
	}
	for seed := 1; seed <= 5; seed++ {
		if code, body := postJSON(t, ts.URL+"/v1/validate?wait=true", failingValidateBody(seed)); code != http.StatusUnprocessableEntity {
			t.Fatalf("failing job %d = %d: %s", seed, code, body)
		}
	}
	waitFor(t, "five failures counted", func() bool {
		return strings.Contains(renderMetrics(s), `capserved_jobs_completed_total{kind="validate",state="failed"} 5`)
	})
	hits := s.CacheStats().Hits
	if code, body := postJSON(t, ts.URL+"/v1/validate?wait=true", cached); code != http.StatusOK {
		t.Errorf("cached validate after five failures = %d: %s", code, body)
	} else if s.CacheStats().Hits != hits+1 {
		t.Errorf("cached validate was not a cache hit")
	}
	const fresh = `{"pool":"D","servers":3,"loads":[50,150],"ticks_per_level":4}`
	if code, body := postJSON(t, ts.URL+"/v1/validate?wait=true", fresh); code != http.StatusOK {
		t.Errorf("fresh validate after five failures = %d: %s", code, body)
	}
}

// TestChaosFailingBurstNoLeak fires concurrent submissions whose jobs all
// fail: every one must be admitted as a job of its own and no goroutine may
// outlive the burst.
func TestChaosFailingBurstNoLeak(t *testing.T) {
	leakcheck.Check(t)
	const burst = 30
	s := New(Config{Workers: 2, QueueDepth: burst, CacheSize: 16, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = postJSON(t, ts.URL+"/v1/validate", failingValidateBody(i))
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusAccepted {
			t.Fatalf("burst request %d = %d, want 202", i, code)
		}
	}
	waitFor(t, "every burst job to fail", func() bool {
		return strings.Contains(renderMetrics(s), fmt.Sprintf(`capserved_jobs_completed_total{kind="validate",state="failed"} %d`, burst))
	})
	if depth := s.queue.Stats().Depth; depth != 0 {
		t.Errorf("queue depth after burst = %d, want 0", depth)
	}
}

// transientB is a one-shot transient fault on pool B's first record: the
// first stream of B fails, every later one through the same injector runs
// clean.
func transientB() *faults.Injector {
	return faults.New(7, faults.Rule{Kind: faults.Transient, Pools: []string{"B"}, At: []int{0}})
}

const transientBody = `{"days":1,"seed":1,"pools":["B","D"]}`

// wantTransient503 submits body to base's /v1/simulate with ?wait and
// requires the answer of a job that failed transiently: 503, a Retry-After
// of whole seconds and the failed job's view with its error, marked
// retryable there and when the job is read back by id.
func wantTransient503(t *testing.T, base, body string) jobView {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate?wait=true", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("simulate = %d, want 503: %s", resp.StatusCode, raw)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	if v.State != jobs.Failed || v.Error == "" {
		t.Fatalf("job = %s (%q), want failed with its error", v.State, v.Error)
	}
	if !strings.Contains(string(raw), `"retryable": true`) {
		t.Errorf("?wait view is not marked retryable:\n%s", raw)
	}
	if code, got := getJSON(t, base+v.Self); code != http.StatusOK || !strings.Contains(string(got), `"retryable": true`) {
		t.Errorf("GET %s = %d, want the view marked retryable:\n%s", v.Self, code, got)
	}
	return v
}

// TestFaultTransientAnswers503ThenResubmitted: with partial results off, a
// transient shard fault fails the job's one run, and ?wait answers 503 with
// Retry-After. A failed job is not cached, so the client's resubmission (the
// injector's one shot spent) computes the fault-free bytes, and a third
// submission is a cache hit of them.
func TestFaultTransientAnswers503ThenResubmitted(t *testing.T) {
	cfg := chaosConfig(transientB())
	cfg.PartialResults = false
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	clean := New(chaosConfig(nil))
	tsClean := httptest.NewServer(clean.Handler())
	t.Cleanup(func() {
		ts.Close()
		tsClean.Close()
		s.Shutdown(context.Background())
		clean.Shutdown(context.Background())
	})
	wantTransient503(t, ts.URL, transientBody)
	v1, res := submitSimulate(t, ts.URL, transientBody)
	if res.Degraded || len(res.FailedPools) != 0 {
		t.Fatalf("result = %+v, want the complete result of the resubmission", res)
	}
	want, _ := submitSimulate(t, tsClean.URL, transientBody)
	if string(v1.Result) != string(want.Result) {
		t.Error("resubmission differs from the fault-free result")
	}
	v2, _ := submitSimulate(t, ts.URL, transientBody)
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 2 || st.Uncacheable != 0 {
		t.Errorf("cache stats = %+v, want two computations, then a hit of the cached result", st)
	}
	if string(v2.Result) != string(v1.Result) {
		t.Error("cache hit differs from the computed result")
	}
	_, mtext := getJSON(t, ts.URL+"/metrics")
	if n := metricValue(t, string(mtext), "capserved_injected_faults_total"); n != 1 {
		t.Errorf("injected_faults_total = %v, want 1", n)
	}
	if n := metricValue(t, string(mtext), `capserved_jobs_completed_total{kind="simulate",state="failed"}`); n != 1 {
		t.Errorf("jobs_completed_total{simulate,failed} = %v, want 1", n)
	}
}

// TestFaultTransientDegradesWithPartialResults: with partial results on, a
// transient shard fault degrades its shard like any other fault; the
// degraded result is not cached, so the resubmission recomputes and (the
// one shot spent) comes out as the fault-free bytes.
func TestFaultTransientDegradesWithPartialResults(t *testing.T) {
	s := New(chaosConfig(transientB()))
	ts := httptest.NewServer(s.Handler())
	clean := New(chaosConfig(nil))
	tsClean := httptest.NewServer(clean.Handler())
	t.Cleanup(func() {
		ts.Close()
		tsClean.Close()
		s.Shutdown(context.Background())
		clean.Shutdown(context.Background())
	})
	_, res := submitSimulate(t, ts.URL, transientBody)
	if !res.Degraded || !reflect.DeepEqual(res.FailedPools, []string{"B"}) {
		t.Fatalf("degraded = %v, failed_pools = %v, want a degraded result missing [B]", res.Degraded, res.FailedPools)
	}
	if st := s.CacheStats(); st.Uncacheable != 1 {
		t.Errorf("uncacheable = %d, want 1: a degraded result is not cached", st.Uncacheable)
	}
	again, _ := submitSimulate(t, ts.URL, transientBody)
	want, _ := submitSimulate(t, tsClean.URL, transientBody)
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want the resubmission recomputed", st)
	}
	if string(again.Result) != string(want.Result) {
		t.Error("resubmission differs from the fault-free result")
	}
}

// TestReadyzStates walks /readyz through ready → overloaded → draining.
func TestReadyzStates(t *testing.T) {
	// Queue depth 1 puts the watermark at max(3/4 of 1, 1) = 1.
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4, JobTimeout: time.Minute})
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

// TestReadyzWatermarkDerived: with no setting to override it, /readyz
// reports overloaded once the queue holds max(3/4 of its depth bound, 1)
// jobs, and ready one job below that.
func TestReadyzWatermarkDerived(t *testing.T) {
	for _, tc := range []struct{ depth, hwm int }{{1, 1}, {4, 3}, {8, 6}} {
		s := New(Config{Workers: 1, QueueDepth: tc.depth, CacheSize: 4, JobTimeout: time.Minute})
		ts := httptest.NewServer(s.Handler())
		block := make(chan struct{})
		t.Cleanup(func() {
			close(block)
			ts.Close()
			s.Shutdown(context.Background())
		})
		submit := func(fn func(context.Context) (any, error)) {
			t.Helper()
			if _, err := s.queue.SubmitCtx(context.Background(), "t", fn); err != nil {
				t.Fatalf("depth %d: %v", tc.depth, err)
			}
		}
		// readyz answers the status and the watermark it reports.
		readyz := func() (int, string, int) {
			t.Helper()
			code, body := getJSON(t, ts.URL+"/readyz")
			var rz struct {
				Status        string `json:"status"`
				HighWatermark int    `json:"high_watermark"`
			}
			if err := json.Unmarshal(body, &rz); err != nil {
				t.Fatalf("depth %d: readyz %s: %v", tc.depth, body, err)
			}
			return code, rz.Status, rz.HighWatermark
		}

		// Occupy the single worker so submissions stay queued.
		submit(func(ctx context.Context) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, nil
		})
		waitFor(t, "worker busy", func() bool { return s.queue.Stats().Running == 1 })
		for i := 0; i < tc.hwm-1; i++ {
			submit(func(context.Context) (any, error) { return nil, nil })
		}
		if code, status, hwm := readyz(); code != http.StatusOK || status != "ready" || hwm != tc.hwm {
			t.Errorf("depth %d, %d queued: readyz = %d %s watermark %d, want 200 ready watermark %d",
				tc.depth, tc.hwm-1, code, status, hwm, tc.hwm)
		}
		submit(func(context.Context) (any, error) { return nil, nil })
		if code, status, hwm := readyz(); code != http.StatusServiceUnavailable || status != "overloaded" || hwm != tc.hwm {
			t.Errorf("depth %d, %d queued: readyz = %d %s watermark %d, want 503 overloaded watermark %d",
				tc.depth, tc.hwm, code, status, hwm, tc.hwm)
		}
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

// TestRetryAfterEdgeCases pins the boundary behavior of the Retry-After
// estimate: every path must yield a value in [1, 120] — including a
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

}

// FuzzValidateRequest fuzzes the strict request decoder: no body may panic
// it, and any accepted request must satisfy the documented invariants and
// stay within the request limits.
func FuzzValidateRequest(f *testing.F) {
	f.Add(`{"pool":"A","loads":[10,20,30],"change":{"latency_delta_ms":3}}`)
	f.Add(`{"pool":"B","servers":2,"loads":[1.5],"ticks_per_level":4,"seed":9,"change":{}}`)
	f.Add(`{"pool":"","loads":[]}`)
	f.Add(`{"pool":"Z","loads":[10]}`)
	f.Add(`{"loads":[3,2,1],"pool":"A"}`)
	f.Add(`not json at all`)
	f.Add(`{"pool":"A","loads":[10],"unknown_field":true}`)
	f.Add(`{"pool":"A","loads":[1e308,2e308]}`)
	f.Add(`{"pool":"B","servers":1000000,"loads":[1,2]}`)
	f.Add(`{"pool":"B","servers":1099511627776,"loads":[1,2],"ticks_per_level":1099511627776}`)
	f.Add(`{"pool":"B","loads":[1e-300,1e-299]}`)
	for _, body := range closeLevelBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeValidate([]byte(body))
		if err != nil {
			return
		}
		if req.Pool == "" {
			t.Fatalf("accepted request with empty pool: %q", body)
		}
		if len(req.Loads) < 2 {
			t.Fatalf("accepted request with fewer than 2 loads: %q", body)
		}
		for i, l := range req.Loads {
			if i > 0 && !(l > req.Loads[i-1]*synth.LevelRatio(req.Servers)) {
				t.Fatalf("accepted loads %v closer than the replay tells apart: %q", req.Loads, body)
			}
			if l < minLoadPerServer || l > maxLoadPerServer {
				t.Fatalf("accepted loads[%d] = %v outside [%g, %g]: %q", i, l, minLoadPerServer, maxLoadPerServer, body)
			}
		}
		if req.Servers < 1 || req.TicksPerLevel < 1 || req.Seed == 0 {
			t.Fatalf("accepted request without defaults applied: %+v", req)
		}
		if n := float64(len(req.Loads)) * float64(req.TicksPerLevel) * float64(req.Servers); n > maxValidateRecords {
			t.Fatalf("accepted %v records, over %d: %q", n, maxValidateRecords, body)
		}
	})
}

// FuzzForecastRequest: any forecast request the decoder accepts is within
// the limits, so its fit and peak projection are bounded work, and is
// answered: its job computes a result that renders.
func FuzzForecastRequest(f *testing.F) {
	f.Add(`{"series":[1,2,3,4],"ticks_per_day":2,"horizon_days":7}`)
	f.Add(`{"series":[1,2],"ticks_per_day":1,"horizon_days":1000000000}`)
	f.Add(`{"series":[1,2],"ticks_per_day":1,"horizon_days":12810238940076077}`)
	f.Add(`{"series":[1,2],"ticks_per_day":4611686018427387904}`)
	f.Add(`{"series":[1,-5,3,4],"ticks_per_day":2}`)
	f.Add(`{"series":[1,2,3],"ticks_per_day":0}`)
	for _, body := range overflowForecastBodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeForecast([]byte(body))
		if err != nil {
			return
		}
		if req.TicksPerDay < 1 || req.TicksPerDay > maxTicksPerDay {
			t.Fatalf("accepted ticks_per_day %d: %q", req.TicksPerDay, body)
		}
		if len(req.Series) < 2*req.TicksPerDay {
			t.Fatalf("accepted %d samples at %d ticks a day: %q", len(req.Series), req.TicksPerDay, body)
		}
		for i, v := range req.Series {
			if v < 0 {
				t.Fatalf("accepted negative series[%d] = %v: %q", i, v, body)
			}
		}
		if req.HorizonDays < 0 || req.HorizonDays > maxHorizonDays {
			t.Fatalf("accepted horizon_days %d: %q", req.HorizonDays, body)
		}
		res, _, err := (&Server{}).computeForecast(context.Background(), req)
		if err != nil {
			t.Fatalf("accepted request failed its job: %v: %q", err, body)
		}
		if _, err := render(res); err != nil {
			t.Fatalf("accepted request's result does not render: %v: %q", err, body)
		}
	})
}

// FuzzPlanRequest: any plan request the decoder accepts is canonical and
// within the limits.
func FuzzPlanRequest(f *testing.F) {
	f.Add(`{"pools":["B"],"days":1,"latency_budget_ms":5}`)
	f.Add(`{"pools":["B"],"max_groups":9}`)
	f.Add(`{"pools":["D"],"max_groups":1000}`)
	f.Add(`{"max_groups":-1}`)
	f.Add(`{"days":31}`)
	f.Add(`{"pools":["H","A","H"],"max_reduction_frac":2}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodePlan([]byte(body))
		if err != nil {
			return
		}
		if req.Days < 1 || req.Days > maxDays {
			t.Fatalf("accepted days %d: %q", req.Days, body)
		}
		if req.MaxGroups < 0 || req.MaxGroups > maxGroups {
			t.Fatalf("accepted max_groups %d: %q", req.MaxGroups, body)
		}
		if req.MaxReductionFrac < 0 || req.MaxReductionFrac > 1 {
			t.Fatalf("accepted max_reduction_frac %v: %q", req.MaxReductionFrac, body)
		}
		if req.LatencyBudgetMs <= 0 || req.Seed == 0 || req.PlanSeed == 0 {
			t.Fatalf("accepted request without defaults applied: %+v", req)
		}
		if !sort.StringsAreSorted(req.Pools) {
			t.Fatalf("accepted unsorted pools %v: %q", req.Pools, body)
		}
	})
}
