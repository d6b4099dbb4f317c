package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"headroom/internal/jobs"
	"headroom/internal/obs"
)

// spanJSON mirrors obs.SpanData's wire shape; attrs decode as a generic map
// (AttrList marshals to an object, so it can't round-trip into the slice).
type spanJSON struct {
	SpanID   uint64         `json:"span_id"`
	ParentID uint64         `json:"parent_id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs"`
}

type traceJSON struct {
	TraceID string     `json:"trace_id"`
	Spans   []spanJSON `json:"spans"`
}

// TestPlanJobEndToEndObservability runs a sharded plan job through the full
// HTTP surface and asserts the acceptance criteria: the response carries a
// trace id, /debug/traces contains that trace with one span per aggregation
// shard plus the queue-wait and stage spans with consistent durations, and
// /metrics exposes a stage histogram for every stage that ran.
func TestPlanJobEndToEndObservability(t *testing.T) {
	tracer := obs.NewTracer(32)
	s := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 2, Tracer: tracer,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// Two pools on two shards so the trace must carry two simulate.pool
	// spans.
	resp, err := http.Post(ts.URL+"/v1/plan?wait=true", "application/json",
		strings.NewReader(`{"pools":["B","D"],"days":1}`))
	if err != nil {
		t.Fatalf("POST plan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d", resp.StatusCode)
	}
	headerTrace := resp.Header.Get("X-Trace-Id")
	if headerTrace == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	if v.State != jobs.Done {
		t.Fatalf("job state = %s: %s", v.State, v.Error)
	}
	if v.TraceID == "" {
		t.Fatal("job JSON missing trace_id")
	}
	if v.TraceID != headerTrace {
		t.Fatalf("job trace_id %q != X-Trace-Id %q", v.TraceID, headerTrace)
	}

	td := fetchTrace(t, ts.URL, v.TraceID)

	spans := map[string][]spanJSON{}
	byID := map[uint64]spanJSON{}
	for _, sd := range td.Spans {
		spans[sd.Name] = append(spans[sd.Name], sd)
		byID[sd.SpanID] = sd
	}
	for _, name := range []string{
		"jobs.job", "jobs.queued", "jobs.attempt",
		"session.simulate", "session.aggregate", "session.merge", "session.plan",
	} {
		if len(spans[name]) == 0 {
			t.Errorf("trace missing span %q (have %v)", name, spanNames(td.Spans))
		}
	}
	// One simulate.pool span per shard, each naming its pool.
	shardSpans := spans["simulate.pool"]
	if len(shardSpans) != 2 {
		t.Fatalf("simulate.pool spans = %d, want one per shard", len(shardSpans))
	}
	pools := map[string]bool{}
	for _, sd := range shardSpans {
		for _, p := range strings.Split(fmt.Sprint(sd.Attrs["pool"]), ",") {
			pools[p] = true
		}
		if sd.Attrs["records"] == nil {
			t.Errorf("shard span missing records attr: %v", sd.Attrs)
		}
	}
	if !pools["B"] || !pools["D"] {
		t.Errorf("shard spans cover pools %v, want B and D", pools)
	}
	// Queue-wait span carries the measured wait and matches the job span's
	// attribute; JSON numbers decode as float64.
	queued := spans["jobs.queued"][0]
	jobSpan := spans["jobs.job"][0]
	qw, _ := queued.Attrs["queue_wait_ns"].(float64)
	jw, _ := jobSpan.Attrs["queue_wait_ns"].(float64)
	if qw != jw {
		t.Errorf("queue_wait_ns disagree: queued span %v, job span %v", qw, jw)
	}
	if queued.Duration != time.Duration(qw) {
		t.Errorf("jobs.queued duration %d != queue_wait_ns %v", queued.Duration, qw)
	}
	// Duration consistency: every child fits inside its parent's window
	// (with a small tolerance for clock reads on either side of End).
	for _, sd := range td.Spans {
		p, ok := byID[sd.ParentID]
		if !ok {
			continue
		}
		if sd.Start.Before(p.Start.Add(-time.Millisecond)) {
			t.Errorf("span %s starts before parent %s", sd.Name, p.Name)
		}
		if end, pend := sd.Start.Add(sd.Duration), p.Start.Add(p.Duration); end.After(pend.Add(time.Millisecond)) {
			t.Errorf("span %s (ends %v) outruns parent %s (ends %v)", sd.Name, end, p.Name, pend)
		}
	}

	// Every executed stage must have a histogram series on /metrics.
	_, mbody := getJSON(t, ts.URL+"/metrics")
	metrics := string(mbody)
	for _, stage := range []string{"simulate", "aggregate", "merge", "plan"} {
		want := fmt.Sprintf(`headroom_stage_duration_seconds_count{stage="%s"}`, stage)
		line := metricLine(metrics, want)
		if line == "" {
			t.Errorf("metrics missing %s", want)
			continue
		}
		if strings.HasSuffix(line, " 0") {
			t.Errorf("stage %s ran but histogram count is zero: %s", stage, line)
		}
	}
	if !strings.Contains(metrics, `headroom_simulate_pool_duration_seconds_count{pool=`) {
		t.Error("metrics missing per-pool simulate histogram")
	}
	for _, want := range []string{
		"headroom_jobs_queue_wait_seconds_count",
		"headroom_jobs_run_seconds_count",
		`capserved_http_requests_total{handler="plan"}`,
		`capserved_jobs_completed_total{kind="plan",state="done"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// The observable contract, pinned: what one plan job shows an operator is
	// this span tree and this metric inventory, whatever closes the stages.
	if got := spanShape(td.Spans); got != wantPlanSpans {
		t.Errorf("span shape of a plan job changed:\n%s\nwant:\n%s", got, wantPlanSpans)
	}
	if got := metricShape(t, metrics); got != wantNodeMetrics {
		t.Errorf("/metrics inventory changed:\n%s\nwant:\n%s", got, wantNodeMetrics)
	}
}

// The expected shapes were captured at the commit before obs.Stage existed
// (hand-threaded StartSpan/time.Since/Observe* at every site); one line has
// moved since, on purpose: each shard is planned where it was ingested, so
// session.plan is a child of every simulate.pool, no longer one span under
// jobs.attempt after the merge.
const wantPlanSpans = `http.plan <> [method path request_id]
jobs.attempt <jobs.job> [attempt]
jobs.job <http.plan> [attempts job_id kind queue_wait_ns run_ns state]
jobs.queued <jobs.job> [queue_wait_ns]
session.aggregate <session.simulate> [degraded records shards]
session.merge <session.aggregate> [shards]
session.plan <simulate.pool> [pools]
session.plan <simulate.pool> [pools]
session.simulate <jobs.attempt> [days]
simulate.pool <session.aggregate> [degraded pool records shard]
simulate.pool <session.aggregate> [degraded pool records shard]`

const wantNodeMetrics = `capserved_bad_requests_total counter {}
capserved_breaker_fast_fails_total counter {kind}
capserved_breaker_state gauge {kind}
capserved_breaker_transitions_total counter {kind,to}
capserved_cache_deduped_total counter {}
capserved_cache_hits_total counter {}
capserved_cache_misses_total counter {}
capserved_cache_size gauge {}
capserved_cache_uncacheable_total counter {}
capserved_degraded_responses_total counter {kind}
capserved_http_requests_total counter {handler}
capserved_injected_faults_total counter {}
capserved_job_retries_total counter {kind}
capserved_jobs_completed_total counter {kind,state}
capserved_jobs_running gauge {}
capserved_jobs_submitted_total counter {kind}
capserved_not_ready_total counter {}
capserved_queue_depth gauge {}
capserved_queue_rejections_total counter {}
capserved_request_duration_seconds histogram {handler} le=0.001,0.005,0.025,0.1,0.25,1,2.5,10,30,+Inf
capserved_source_retries_total counter {}
capserved_workers gauge {}
headroom_jobs_queue_wait_seconds histogram {} le=0.0001,0.0005,0.001,0.005,0.025,0.1,0.5,1,2.5,5,10,30,+Inf
headroom_jobs_run_seconds histogram {} le=0.0001,0.0005,0.001,0.005,0.025,0.1,0.5,1,2.5,5,10,30,+Inf
headroom_simulate_pool_duration_seconds histogram {pool} le=0.0001,0.0005,0.001,0.005,0.025,0.1,0.5,1,2.5,5,10,30,+Inf
headroom_stage_duration_seconds histogram {stage} le=0.0001,0.0005,0.001,0.005,0.025,0.1,0.5,1,2.5,5,10,30,+Inf`

func TestRequestIDPropagationAndErrorTraceID(t *testing.T) {
	tracer := obs.NewTracer(8)
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute, Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	// A caller-supplied request id is echoed back, not replaced.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(`{"bad json`))
	req.Header.Set("X-Request-Id", "req-e2e-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-e2e-42" {
		t.Errorf("X-Request-Id = %q, want echo", got)
	}
	// Error bodies carry the trace id so a failing client report can be
	// matched to its trace.
	var e struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if e.TraceID == "" || e.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("error body trace_id %q != header %q", e.TraceID, resp.Header.Get("X-Trace-Id"))
	}
}

func TestDebugGoroutinesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getJSON(t, ts.URL+"/debug/goroutines")
	if code != http.StatusOK {
		t.Fatalf("goroutines = %d: %s", code, body)
	}
	var g struct {
		Total      int               `json:"total"`
		Count      int               `json:"count"`
		Goroutines []json.RawMessage `json:"goroutines"`
	}
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if g.Total == 0 || g.Count != len(g.Goroutines) {
		t.Fatalf("dump = total %d count %d len %d", g.Total, g.Count, len(g.Goroutines))
	}
	// min_age filters out every young goroutine in a fresh test process.
	code, body = getJSON(t, ts.URL+"/debug/goroutines?min_age=10m")
	if code != http.StatusOK {
		t.Fatalf("filtered = %d", code)
	}
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatal(err)
	}
	if g.Count != 0 {
		t.Errorf("min_age=10m kept %d goroutines", g.Count)
	}
	code, _ = getJSON(t, ts.URL+"/debug/goroutines?min_age=banana")
	if code != http.StatusBadRequest {
		t.Errorf("bad min_age = %d, want 400", code)
	}
}

func TestDebugTracesChromeExport(t *testing.T) {
	tracer := obs.NewTracer(8)
	s := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute, Tracer: tracer})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	code, body := postJSON(t, ts.URL+"/v1/simulate?wait=true", `{"pools":["B"],"days":1}`)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, body)
	}
	code, body = getJSON(t, ts.URL+"/debug/traces?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var sawComplete bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "session.simulate" {
			sawComplete = true
		}
	}
	if !sawComplete {
		t.Error("chrome export missing session.simulate complete event")
	}
}

// fetchTrace polls /debug/traces?id= until the middleware has ended the
// root span (its Duration turns nonzero) and the job span has ended too — the
// trace is registered at root start, so it is visible before the request
// fully unwinds.
func fetchTrace(t *testing.T, base, id string) traceJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getJSON(t, base+"/debug/traces?id="+id)
		if code == http.StatusOK {
			var out struct {
				Traces []traceJSON `json:"traces"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatalf("unmarshal traces: %v", err)
			}
			if len(out.Traces) == 1 {
				// The worker ends the job span after it has released the
				// waiting request, so the request span can land first.
				td := out.Traces[0]
				var request, job bool
				for _, sd := range td.Spans {
					request = request || strings.HasPrefix(sd.Name, "http.") && sd.Duration > 0
					job = job || sd.Name == "jobs.job"
				}
				if request && job {
					return td
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spanNames(spans []spanJSON) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}

func metricLine(out, substr string) string {
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, substr) {
			return ln
		}
	}
	return ""
}

// spanShape renders the observable shape of a set of traces: one line per
// span — its name, its parent's name and its sorted attribute keys — sorted,
// so the multiset of (name, parent, keys) is comparable as one string. Span
// ids, timings and attribute values are deliberately absent: they vary run to
// run, the shape must not.
func spanShape(traces ...[]spanJSON) string {
	var lines []string
	for _, spans := range traces {
		names := map[uint64]string{}
		for _, sd := range spans {
			names[sd.SpanID] = sd.Name
		}
		for _, sd := range spans {
			keys := make([]string, 0, len(sd.Attrs))
			for k := range sd.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			lines = append(lines, fmt.Sprintf("%s <%s> [%s]", sd.Name, names[sd.ParentID], strings.Join(keys, " ")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// metricShape renders the inventory of a /metrics exposition: one sorted line
// per family — name, type, sorted label keys and, for histograms, the bucket
// bounds — independent of label values and sample values.
func metricShape(t *testing.T, text string) string {
	t.Helper()
	types := map[string]string{}
	keys := map[string]map[string]bool{}
	buckets := map[string][]string{}
	for _, ln := range strings.Split(text, "\n") {
		if f := strings.Fields(ln); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			keys[f[2]] = map[string]bool{}
			continue
		}
		if ln == "" || ln[0] == '#' {
			continue
		}
		name, rest := ln, ""
		if i := strings.IndexAny(ln, "{ "); i >= 0 {
			name, rest = ln[:i], ln[i:]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
				family = base
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q has no TYPE line", ln)
		}
		for strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			eq := strings.Index(rest, `="`)
			key := rest[:eq]
			rest = rest[eq+2:]
			end := 0
			for rest[end] != '"' {
				if rest[end] == '\\' {
					end++
				}
				end++
			}
			if key == "le" {
				if b := buckets[family]; len(b) == 0 || !slices.Contains(b, rest[:end]) {
					buckets[family] = append(b, rest[:end])
				}
			} else {
				keys[family][key] = true
			}
			rest = rest[end+1:]
		}
	}
	var lines []string
	for family, typ := range types {
		ks := make([]string, 0, len(keys[family]))
		for k := range keys[family] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		line := fmt.Sprintf("%s %s {%s}", family, typ, strings.Join(ks, ","))
		if b := buckets[family]; len(b) > 0 {
			line += " le=" + strings.Join(b, ",")
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
