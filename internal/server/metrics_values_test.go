package server

// Metric values, pinned: metricShape (obs_e2e_test.go) pins which families,
// types and label keys /metrics has; these scenarios pin what the samples
// say after a scripted run, so an event counted on the wrong series — a hedge
// as a reroute, a failed job as done — fails here. One scenario per node
// type; the expected text was captured at the commit before the per-kind row
// and dist-owned metrics existed.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"headroom/internal/dist"
	"headroom/internal/faults"
	"headroom/internal/leakcheck"
)

// renderMetrics is the /metrics body without the request that would count
// itself: the scenarios poll it until the counters settle.
func renderMetrics(s *Server) string {
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// parseSamples maps every sample line of an exposition ("name{labels}") to
// its value.
func parseSamples(t testing.TB, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", ln, err)
		}
		out[ln[:i]] = v
	}
	return out
}

// metricValues renders every counter, gauge and histogram _count sample of an
// exposition as sorted "series value" lines. Histogram sums and buckets are
// timings and left out. The headroom_* families live on the process-wide
// registry, which earlier tests in this process have already counted into, so
// those are reported as the growth since base (and only where they grew).
func metricValues(t testing.TB, text string, base map[string]float64) string {
	t.Helper()
	var lines []string
	for series, v := range parseSamples(t, text) {
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_bucket") {
			continue
		}
		if strings.HasPrefix(name, "headroom_") {
			if v -= base[series]; v == 0 {
				continue
			}
		}
		lines = append(lines, fmt.Sprintf("%s %g", series, v))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// wantValues polls the server's metrics until they read want: completion
// callbacks and the request counters land just after the response that
// caused them.
func wantValues(t *testing.T, s *Server, base map[string]float64, names *strings.Replacer, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := metricValues(t, names.Replace(renderMetrics(s)), base)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric values after the scenario:\n%s\nwant:\n%s", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// step posts one request of a scenario and checks the status it answers.
func step(t *testing.T, what, url, body string, want int) {
	t.Helper()
	if code, resp := postJSON(t, url, body); code != want {
		t.Fatalf("%s = %d, want %d: %s", what, code, want, resp)
	}
}

// TestNodeMetricValuesPinned: a done plan, the same plan again (a cache hit),
// a bad request, a validate job that fails and six simulate jobs failed by an
// injected fault. A run of failed jobs does not stop the next one from being
// admitted: the sixth is a job like the first five.
func TestNodeMetricValuesPinned(t *testing.T) {
	s := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 2,
		Faults: faults.New(1, faults.Rule{Kind: faults.Permanent, Pools: []string{"F"}, At: []int{0}}),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	base := parseSamples(t, renderMetrics(s))

	step(t, "plan", ts.URL+"/v1/plan?wait=true", `{"pools":["G"],"days":1,"seed":7}`, http.StatusOK)
	step(t, "plan again", ts.URL+"/v1/plan?wait=true", `{"pools":["G"],"days":1,"seed":7}`, http.StatusOK)
	step(t, "bad request", ts.URL+"/v1/plan", `{"dayz":1}`, http.StatusBadRequest)
	step(t, "failing validate", ts.URL+"/v1/validate?wait=true", failingValidateBody(1), http.StatusUnprocessableEntity)
	for seed := 1; seed <= 6; seed++ {
		step(t, "faulted simulate", ts.URL+"/v1/simulate?wait=true", fmt.Sprintf(`{"pools":["F"],"days":1,"seed":%d}`, seed), http.StatusUnprocessableEntity)
	}

	wantValues(t, s, base, strings.NewReplacer(), wantNodeValues)
}

const wantNodeValues = `capserved_bad_requests_total 1
capserved_cache_deduped_total 0
capserved_cache_hits_total 1
capserved_cache_misses_total 8
capserved_cache_size 1
capserved_cache_uncacheable_total 0
capserved_degraded_responses_total{kind="forecast"} 0
capserved_degraded_responses_total{kind="plan"} 0
capserved_degraded_responses_total{kind="simulate"} 0
capserved_degraded_responses_total{kind="validate"} 0
capserved_http_requests_total{handler="forecast"} 0
capserved_http_requests_total{handler="healthz"} 0
capserved_http_requests_total{handler="internal_shard"} 0
capserved_http_requests_total{handler="jobs"} 0
capserved_http_requests_total{handler="metrics"} 0
capserved_http_requests_total{handler="plan"} 3
capserved_http_requests_total{handler="readyz"} 0
capserved_http_requests_total{handler="simulate"} 6
capserved_http_requests_total{handler="validate"} 1
capserved_injected_faults_total 6
capserved_jobs_completed_total{kind="forecast",state="done"} 0
capserved_jobs_completed_total{kind="forecast",state="failed"} 0
capserved_jobs_completed_total{kind="plan",state="done"} 2
capserved_jobs_completed_total{kind="plan",state="failed"} 0
capserved_jobs_completed_total{kind="simulate",state="done"} 0
capserved_jobs_completed_total{kind="simulate",state="failed"} 6
capserved_jobs_completed_total{kind="validate",state="done"} 0
capserved_jobs_completed_total{kind="validate",state="failed"} 1
capserved_jobs_running 0
capserved_jobs_submitted_total{kind="forecast"} 0
capserved_jobs_submitted_total{kind="plan"} 2
capserved_jobs_submitted_total{kind="simulate"} 6
capserved_jobs_submitted_total{kind="validate"} 1
capserved_not_ready_total 0
capserved_queue_depth 0
capserved_queue_rejections_total 0
capserved_request_duration_seconds_count{handler="forecast"} 0
capserved_request_duration_seconds_count{handler="healthz"} 0
capserved_request_duration_seconds_count{handler="internal_shard"} 0
capserved_request_duration_seconds_count{handler="jobs"} 0
capserved_request_duration_seconds_count{handler="metrics"} 0
capserved_request_duration_seconds_count{handler="plan"} 3
capserved_request_duration_seconds_count{handler="readyz"} 0
capserved_request_duration_seconds_count{handler="simulate"} 6
capserved_request_duration_seconds_count{handler="validate"} 1
capserved_workers 2
headroom_jobs_queue_wait_seconds_count 9
headroom_jobs_run_seconds_count 9
headroom_simulate_pool_duration_seconds_count{pool="F"} 6
headroom_simulate_pool_duration_seconds_count{pool="G"} 1
headroom_stage_duration_seconds_count{stage="aggregate"} 7
headroom_stage_duration_seconds_count{stage="merge"} 7
headroom_stage_duration_seconds_count{stage="plan"} 1
headroom_stage_duration_seconds_count{stage="simulate"} 7
headroom_stage_duration_seconds_count{stage="validate"} 1`

// TestCoordinatorMetricValuesPinned: three one-shard plans on a 2-worker
// cluster, all keyed "G" so placement is known — the first hedged (the
// shard's owner stalls its first stream, the fallback answers), the second
// clean, the third rerouted off the owner after it is killed.
func TestCoordinatorMetricValuesPinned(t *testing.T) {
	leakcheck.Check(t)
	fronts := []*httptest.Server{httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)}
	urls := make([]string, len(fronts))
	for i, ts := range fronts {
		urls[i] = "http://" + ts.Listener.Addr().String()
	}
	order := dist.Rank("G", urls)
	for i, ts := range fronts {
		cfg := Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, DistToken: e2eToken}
		if urls[i] == order[0] {
			cfg.Faults = faults.New(1, faults.Rule{Kind: faults.Stall, Pools: []string{"G"}, At: []int{0}, StallFor: time.Minute})
		}
		srv := New(cfg)
		ts.Config.Handler = srv.Handler()
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background())
		})
	}
	coord := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 4, Peers: urls, DistToken: e2eToken, HedgeAfter: hedgeAfterPinned,
	})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		coord.Shutdown(context.Background())
	})
	base := parseSamples(t, renderMetrics(coord))

	step(t, "hedged plan", coordTS.URL+"/v1/plan?wait=true", `{"pools":["G"],"days":1,"seed":1}`, http.StatusOK)
	step(t, "clean plan", coordTS.URL+"/v1/plan?wait=true", `{"pools":["G"],"days":1,"seed":2}`, http.StatusOK)
	for i, ts := range fronts {
		if urls[i] == order[0] {
			ts.Close()
		}
	}
	step(t, "rerouted plan", coordTS.URL+"/v1/plan?wait=true", `{"pools":["G"],"days":1,"seed":3}`, http.StatusOK)

	wantValues(t, coord, base, strings.NewReplacer(order[0], "owner", order[1], "fallback"), wantCoordinatorValues)
}

// hedgeAfterPinned is long enough that a healthy worker answers a pool-day
// shard first (also under -race) and short enough to wait out once.
const hedgeAfterPinned = 3 * time.Second

const wantCoordinatorValues = `capserved_bad_requests_total 0
capserved_cache_deduped_total 0
capserved_cache_hits_total 0
capserved_cache_misses_total 3
capserved_cache_size 3
capserved_cache_uncacheable_total 0
capserved_degraded_responses_total{kind="forecast"} 0
capserved_degraded_responses_total{kind="plan"} 0
capserved_degraded_responses_total{kind="simulate"} 0
capserved_degraded_responses_total{kind="validate"} 0
capserved_dist_breaker_skips_total 0
capserved_dist_breaker_transitions_total{peer="fallback",to="closed"} 0
capserved_dist_breaker_transitions_total{peer="fallback",to="half_open"} 0
capserved_dist_breaker_transitions_total{peer="fallback",to="open"} 0
capserved_dist_breaker_transitions_total{peer="owner",to="closed"} 0
capserved_dist_breaker_transitions_total{peer="owner",to="half_open"} 0
capserved_dist_breaker_transitions_total{peer="owner",to="open"} 0
capserved_dist_hedge_wins_total 1
capserved_dist_hedges_total 1
capserved_dist_peers 2
capserved_dist_peers_open 0
capserved_dist_reroutes_total 1
capserved_dist_shard_failures_total{peer="fallback"} 0
capserved_dist_shard_failures_total{peer="owner"} 1
capserved_dist_shard_latency_seconds_count{peer="fallback"} 2
capserved_dist_shard_latency_seconds_count{peer="owner"} 1
capserved_dist_shards_dispatched_total{peer="fallback"} 2
capserved_dist_shards_dispatched_total{peer="owner"} 3
capserved_dist_shards_exhausted_total 0
capserved_dist_worker_breaker_state{peer="fallback"} 0
capserved_dist_worker_breaker_state{peer="owner"} 0
capserved_http_requests_total{handler="forecast"} 0
capserved_http_requests_total{handler="healthz"} 0
capserved_http_requests_total{handler="internal_shard"} 0
capserved_http_requests_total{handler="jobs"} 0
capserved_http_requests_total{handler="metrics"} 0
capserved_http_requests_total{handler="plan"} 3
capserved_http_requests_total{handler="readyz"} 0
capserved_http_requests_total{handler="simulate"} 0
capserved_http_requests_total{handler="validate"} 0
capserved_injected_faults_total 0
capserved_jobs_completed_total{kind="forecast",state="done"} 0
capserved_jobs_completed_total{kind="forecast",state="failed"} 0
capserved_jobs_completed_total{kind="plan",state="done"} 3
capserved_jobs_completed_total{kind="plan",state="failed"} 0
capserved_jobs_completed_total{kind="simulate",state="done"} 0
capserved_jobs_completed_total{kind="simulate",state="failed"} 0
capserved_jobs_completed_total{kind="validate",state="done"} 0
capserved_jobs_completed_total{kind="validate",state="failed"} 0
capserved_jobs_running 0
capserved_jobs_submitted_total{kind="forecast"} 0
capserved_jobs_submitted_total{kind="plan"} 3
capserved_jobs_submitted_total{kind="simulate"} 0
capserved_jobs_submitted_total{kind="validate"} 0
capserved_not_ready_total 0
capserved_queue_depth 0
capserved_queue_rejections_total 0
capserved_request_duration_seconds_count{handler="forecast"} 0
capserved_request_duration_seconds_count{handler="healthz"} 0
capserved_request_duration_seconds_count{handler="internal_shard"} 0
capserved_request_duration_seconds_count{handler="jobs"} 0
capserved_request_duration_seconds_count{handler="metrics"} 0
capserved_request_duration_seconds_count{handler="plan"} 3
capserved_request_duration_seconds_count{handler="readyz"} 0
capserved_request_duration_seconds_count{handler="simulate"} 0
capserved_request_duration_seconds_count{handler="validate"} 0
capserved_workers 2
headroom_jobs_queue_wait_seconds_count 3
headroom_jobs_run_seconds_count 3
headroom_simulate_pool_duration_seconds_count{pool="G"} 7
headroom_stage_duration_seconds_count{stage="aggregate"} 3
headroom_stage_duration_seconds_count{stage="merge"} 3
headroom_stage_duration_seconds_count{stage="plan"} 3
headroom_stage_duration_seconds_count{stage="simulate"} 3`
