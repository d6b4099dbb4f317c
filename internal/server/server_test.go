package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"headroom/internal/jobs"
)

// newTestServer builds a server sized for tests and returns it with an
// httptest front-end.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postJSON(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, b
}

func getJSON(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, b
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestSubmitPlanAsyncAndPoll(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/plan", `{"pools":["B"],"days":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	if v.JobID == "" || v.Kind != "plan" || v.Self != "/v1/jobs/"+v.JobID {
		t.Fatalf("envelope = %+v", v)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body = getJSON(t, ts.URL+v.Self)
		if code != http.StatusOK {
			t.Fatalf("poll = %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("unmarshal job: %v", err)
		}
		if v.State == jobs.Done || v.State == jobs.Failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v.State != jobs.Done {
		t.Fatalf("job failed: %s", v.Error)
	}
	var res PlanResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if len(res.Plans) != 2 { // pool B runs in two datacenters
		t.Fatalf("plans = %d, want 2", len(res.Plans))
	}
	if res.SavingsFrac <= 0 {
		t.Errorf("savings = %v, want > 0", res.SavingsFrac)
	}
}

// metricValue extracts one un-labelled (or exactly-labelled) sample from
// Prometheus exposition text.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s value %q: %v", name, m[1], err)
	}
	return v
}

func TestPlanCacheHitIsByteIdenticalAndCounted(t *testing.T) {
	_, ts := newTestServer(t)
	const req = `{"pools":["B"],"days":1,"seed":7}`

	code, body1 := postJSON(t, ts.URL+"/v1/plan?wait=true", req)
	if code != http.StatusOK {
		t.Fatalf("first submit = %d: %s", code, body1)
	}
	var v1 jobView
	json.Unmarshal(body1, &v1)

	// Same request with different key order and whitespace must hit.
	code, body2 := postJSON(t, ts.URL+"/v1/plan?wait=true",
		`{ "seed": 7, "days": 1, "pools": ["B"] }`)
	if code != http.StatusOK {
		t.Fatalf("second submit = %d: %s", code, body2)
	}
	var v2 jobView
	json.Unmarshal(body2, &v2)

	if !bytes.Equal(v1.Result, v2.Result) {
		t.Error("cached result differs from first computation")
	}
	if v1.JobID == v2.JobID {
		t.Error("both submissions share a job ID; every submit must create a job")
	}

	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	text := string(metricsBody)
	if hits := metricValue(t, text, "capserved_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := metricValue(t, text, "capserved_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
	}{
		{"negative days", "/v1/simulate", `{"days":-3}`},
		{"days too large", "/v1/simulate", `{"days":31}`},
		{"unknown pool", "/v1/plan?wait=true", `{"pools":["ZZ"]}`},
		{"unknown field", "/v1/plan", `{"dayz":1}`},
		{"negative budget", "/v1/plan", `{"latency_budget_ms":-1}`},
		{"missing pool", "/v1/validate", `{"loads":[100]}`},
		{"unsorted loads", "/v1/validate", `{"pool":"B","loads":[300,100]}`},
		{"short series", "/v1/forecast", `{"series":[1,2,3],"ticks_per_day":24}`},
		{"no ticks", "/v1/forecast", `{"series":[1,2,3]}`},
		{"not json", "/v1/plan", `days=1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("code = %d, want 400: %s", code, body)
			}
		})
	}
	// Unknown-pool requests must fail fast at submit, not as failed jobs.
	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	if bad := metricValue(t, string(metricsBody), "capserved_bad_requests_total"); bad != float64(len(cases)) {
		t.Errorf("bad_requests_total = %v, want %d", bad, len(cases))
	}
}

func TestUnknownPoolRejectedBeforeQueue(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/plan", `{"pools":["nope"]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("code = %d: %s", code, body)
	}
	if !strings.Contains(string(body), "unknown pools: nope") {
		t.Errorf("body = %s", body)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	code, _ := getJSON(t, ts.URL+"/v1/jobs/j-424242")
	if code != http.StatusNotFound {
		t.Errorf("code = %d, want 404", code)
	}
}

// TestEvictedJobIs404: a finished job stays addressable until jobs.Retained
// later jobs have finished, then answers 404 like an id that never existed.
// Breakers are off, so the same run drives the submit and completion paths
// over nil breakers.
func TestEvictedJobIs404(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, JobTimeout: time.Minute, BreakerThreshold: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	code, body := postJSON(t, ts.URL+"/v1/simulate?wait=true", `{"pools":["B"],"days":1}`)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, body)
	}
	if st, enabled := s.BreakerState("simulate"); enabled || st.String() != "closed" {
		t.Errorf("BreakerState with breakers off = %s, %v; want closed, false", st, enabled)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if code, _ := getJSON(t, ts.URL+v.Self); code != http.StatusOK {
		t.Fatalf("finished job = %d, want 200 while retained", code)
	}
	// Retained later finishes evict it — plus the few noops that overtook it:
	// its worker retires it a moment after releasing the request above, and
	// the other worker can finish and retire several noops in that moment.
	for i := 0; i < jobs.Retained+1000; i++ {
		if i >= jobs.Retained {
			if code, body = getJSON(t, ts.URL+v.Self); code == http.StatusNotFound {
				break
			}
		}
		j, err := s.queue.SubmitCtx(context.Background(), "noop", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		j.Wait(context.Background())
	}
	if code != http.StatusNotFound || !strings.Contains(string(body), "no job") {
		t.Errorf("evicted job = %d %s, want 404 no job", code, body)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/validate?wait=true",
		`{"pool":"B","servers":10,"loads":[100,300,500],"ticks_per_level":10,"seed":4,
		  "change":{"name":"noop"}}`)
	if code != http.StatusOK {
		t.Fatalf("validate = %d: %s", code, body)
	}
	var v jobView
	json.Unmarshal(body, &v)
	if v.State != jobs.Done {
		t.Fatalf("state = %s: %s", v.State, v.Error)
	}
	var res ValidateResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Report.LatencyRegression {
		t.Error("no-op change regressed")
	}
	if !res.Report.Acceptable {
		t.Error("no-op change not acceptable")
	}
}

func TestValidateDetectsRegression(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/validate?wait=true",
		`{"pool":"B","servers":10,"loads":[100,300,500],"ticks_per_level":10,"seed":4,
		  "change":{"name":"slow build","latency_delta_ms":10}}`)
	if code != http.StatusOK {
		t.Fatalf("validate = %d: %s", code, body)
	}
	var v jobView
	json.Unmarshal(body, &v)
	var res ValidateResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !res.Report.LatencyRegression {
		t.Error("+10ms change not flagged as a latency regression")
	}
}

func TestForecastEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// Three days of a rising diurnal series, 24 ticks per day.
	var series []float64
	for i := 0; i < 72; i++ {
		day := float64(i / 24)
		hour := float64(i % 24)
		series = append(series, 1000+50*day+200*hour/24)
	}
	req := map[string]any{"series": series, "ticks_per_day": 24, "horizon_days": 7}
	b, _ := json.Marshal(req)
	code, body := postJSON(t, ts.URL+"/v1/forecast?wait=true", string(b))
	if code != http.StatusOK {
		t.Fatalf("forecast = %d: %s", code, body)
	}
	var v jobView
	json.Unmarshal(body, &v)
	if v.State != jobs.Done {
		t.Fatalf("state = %s: %s", v.State, v.Error)
	}
	var res ForecastResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.GrowthPerDay <= 0 {
		t.Errorf("growth/day = %v, want > 0 for a rising series", res.GrowthPerDay)
	}
	if res.PeakForecast == nil || *res.PeakForecast <= 0 {
		t.Errorf("peak forecast = %v", res.PeakForecast)
	}
}

func TestFailedJobReports422OnWait(t *testing.T) {
	_, ts := newTestServer(t)
	// Validate a pool that exists but with loads far beyond anything the
	// ten-server pool can serve still succeeds, so instead drive a failure
	// through forecast: a valid-length series containing a negative value
	// passes HTTP validation width checks but fails the fit.
	var series []float64
	for i := 0; i < 48; i++ {
		series = append(series, 100)
	}
	series[40] = -5
	req := map[string]any{"series": series, "ticks_per_day": 24}
	b, _ := json.Marshal(req)
	code, body := postJSON(t, ts.URL+"/v1/forecast?wait=true", string(b))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d, want 422: %s", code, body)
	}
	var v jobView
	json.Unmarshal(body, &v)
	if v.State != jobs.Failed || v.Error == "" {
		t.Errorf("job = %+v, want failed with error", v)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	s, ts := newTestServer(t)
	// Occupy both workers, wait until they are running, then fill the
	// pending queue with blocked jobs.
	block := make(chan struct{})
	defer close(block)
	blocked := func(ctx context.Context) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	for i := 0; i < 2; i++ {
		if _, err := s.queue.SubmitCtx(context.Background(), "simulate", blocked); err != nil {
			t.Fatalf("occupy workers: %v", err)
		}
	}
	for s.queue.Stats().Running < 2 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.queue.SubmitCtx(context.Background(), "simulate", blocked); err != nil {
			t.Fatalf("fill queue: %v", err)
		}
	}
	code, body := postJSON(t, ts.URL+"/v1/simulate", `{"days":1}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503: %s", code, body)
	}
	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	if n := metricValue(t, string(metricsBody), "capserved_queue_rejections_total"); n != 1 {
		t.Errorf("queue_rejections_total = %v, want 1", n)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, want := range []string{
		"# TYPE capserved_jobs_submitted_total counter",
		"# TYPE capserved_jobs_running gauge",
		"# TYPE capserved_queue_depth gauge",
		"# TYPE capserved_cache_hits_total counter",
		"# TYPE capserved_request_duration_seconds histogram",
		`capserved_jobs_submitted_total{kind="plan"}`,
		`capserved_request_duration_seconds_bucket{handler="metrics",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestServeDrainsOnCancel(t *testing.T) {
	s := New(Config{Workers: 2, DrainTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Wait for the listener to answer.
	for i := 0; ; i++ {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if i > 100 {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, body := postJSON(t, base+"/v1/forecast", buildForecastBody(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var v jobView
	json.Unmarshal(body, &v)

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	// The submitted job must have been drained to completion.
	j, ok := s.queue.Get(v.JobID)
	if !ok {
		t.Fatal("job vanished during drain")
	}
	if st := j.State(); st != jobs.Done {
		t.Errorf("job state after drain = %s, want done", st)
	}
}

func buildForecastBody(t testing.TB) string {
	t.Helper()
	var series []float64
	for i := 0; i < 48; i++ {
		series = append(series, 1000+10*float64(i))
	}
	b, err := json.Marshal(map[string]any{"series": series, "ticks_per_day": 24})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkServePlanCached measures the cache-hit serving path end to end:
// HTTP decode, canonicalization, job scheduling and a result-cache hit.
// The first (priming) request pays the simulation; iterations must not.
func BenchmarkServePlanCached(b *testing.B) {
	s, ts := newTestServer(b)
	const req = `{"pools":["B"],"days":1}`
	code, body := postJSON(b, ts.URL+"/v1/plan?wait=true", req)
	if code != http.StatusOK {
		b.Fatalf("prime = %d: %s", code, body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _ := postJSON(b, ts.URL+"/v1/plan?wait=true", req)
		if code != http.StatusOK {
			b.Fatalf("iteration = %d", code)
		}
	}
	b.StopTimer()
	if st := s.CacheStats(); st.Hits < int64(b.N) {
		b.Fatalf("cache hits = %d, want >= %d", st.Hits, b.N)
	}
}
