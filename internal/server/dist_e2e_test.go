package server

// End-to-end distributed scale-out tests: an in-process cluster of capserved
// workers behind httptest, driven through the real HTTP surface. The
// acceptance criteria live here — byte-identity with single-node results,
// reroute on worker loss, partial-result degradation naming exactly the
// lost pools, remote shard spans in traces, and no goroutine leaks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"headroom"
	"headroom/internal/dist"
	"headroom/internal/faults"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
	"headroom/internal/obs"
)

const e2eToken = "dist-e2e-token"

// distWorker is one worker node of a test cluster.
type distWorker struct {
	srv *Server
	ts  *httptest.Server
}

// newDistWorkers starts n capserved workers serving the internal shard
// endpoint, each with its own tracer so remote shard spans can be asserted
// per node.
func newDistWorkers(t testing.TB, n int, mutate func(i int, cfg *Config)) []distWorker {
	t.Helper()
	workers := make([]distWorker, n)
	for i := range workers {
		cfg := Config{
			Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
			DistToken: e2eToken,
			Tracer:    obs.NewTracer(64),
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background())
		})
		workers[i] = distWorker{srv: srv, ts: ts}
	}
	return workers
}

// newCoordinator starts a coordinator distributing to the given workers.
func newCoordinator(t testing.TB, workers []distWorker, mutate func(cfg *Config)) (*Server, *httptest.Server) {
	t.Helper()
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.ts.URL
	}
	cfg := Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute,
		Shards: 4, Peers: peers, DistToken: e2eToken,
		HedgeAfter: -1, // deterministic dispatch counts; hedging is unit-tested
		Tracer:     obs.NewTracer(64),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts
}

// submitWait posts a job with ?wait=true and returns the terminal job view.
func submitWait(t testing.TB, base, path, body string) (int, jobView) {
	t.Helper()
	code, raw := postJSON(t, base+path+"?wait=true", body)
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("unmarshal job view (%d: %s): %v", code, raw, err)
	}
	return code, v
}

// TestDistClusterByteIdentical is the headline acceptance test: a plan job
// distributed across a 3-worker cluster returns byte-for-byte the result a
// single-node server computes, the job status names the coordinator node
// and a worker per shard, and both sides' traces carry the shard spans.
func TestDistClusterByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	const reqBody = `{"pools":["A","B","C","D"],"days":1,"seed":3}`

	// Single-node reference, same shard count.
	single := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleTS.Close()
		single.Shutdown(context.Background())
	})
	code, want := submitWait(t, singleTS.URL, "/v1/plan", reqBody)
	if code != http.StatusOK || want.State != jobs.Done {
		t.Fatalf("single-node plan = %d state %s: %s", code, want.State, want.Error)
	}

	workers := newDistWorkers(t, 3, nil)
	_, coordTS := newCoordinator(t, workers, nil)
	code, got := submitWait(t, coordTS.URL, "/v1/plan", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("distributed plan = %d state %s: %s", code, got.State, got.Error)
	}

	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("distributed result differs from single-node:\n dist:   %s\n single: %s", got.Result, want.Result)
	}

	// Job status provenance: the coordinator's hostname and one placement
	// entry per shard, each naming a real worker.
	if got.Node == "" {
		t.Error("job view missing node")
	}
	if len(got.Placement) != 4 {
		t.Fatalf("placement entries = %d, want one per shard: %+v", len(got.Placement), got.Placement)
	}
	workerURLs := map[string]bool{}
	for _, w := range workers {
		workerURLs[w.ts.URL] = true
	}
	seenShards := map[int]bool{}
	for _, p := range got.Placement {
		if !workerURLs[p.AssignedWorker] {
			t.Errorf("shard %d assigned to unknown worker %q", p.Shard, p.AssignedWorker)
		}
		if len(p.Pools) == 0 {
			t.Errorf("shard %d placement missing pools", p.Shard)
		}
		seenShards[p.Shard] = true
	}
	if len(seenShards) != 4 {
		t.Errorf("placement covers shards %v, want 0-3", seenShards)
	}

	// Coordinator trace: one remote dispatch span per shard, each naming
	// the worker that answered.
	td := fetchTrace(t, coordTS.URL, got.TraceID)
	var dispatch []spanJSON
	for _, sd := range td.Spans {
		if sd.Name == "dist.shard" {
			dispatch = append(dispatch, sd)
		}
	}
	if len(dispatch) != 4 {
		t.Fatalf("dist.shard spans = %d, want one per shard (have %v)", len(dispatch), spanNames(td.Spans))
	}
	for _, sd := range dispatch {
		if w, _ := sd.Attrs["worker"].(string); !workerURLs[w] {
			t.Errorf("dist.shard span worker = %v, want a cluster worker", sd.Attrs["worker"])
		}
	}

	// Worker traces: across the cluster, exactly one dist.shard.serve span
	// per shard, each tagged with the coordinator's trace id.
	served := 0
	for _, w := range workers {
		for _, tr := range w.srv.cfg.Tracer.Traces() {
			for _, sd := range tr.Spans {
				if sd.Name != "dist.shard.serve" {
					continue
				}
				served++
				attrs := sd.Attrs.Map()
				if attrs["coordinator_trace_id"] != got.TraceID {
					t.Errorf("worker shard span coordinator_trace_id = %v, want %s",
						attrs["coordinator_trace_id"], got.TraceID)
				}
			}
		}
	}
	if served != 4 {
		t.Errorf("dist.shard.serve spans across workers = %d, want 4", served)
	}

	// The same plan with pool B permanently down, partial results on. The
	// oracle is the library path the rows replaced on the served one:
	// Simulate (merge the surviving shards' aggregates), then Plan over the
	// merge. A single node must render its very bytes; the cluster must too,
	// up to the failure text (a dispatch error carries worker and HTTP
	// context a local shard error cannot).
	rule := faults.Rule{Kind: faults.Permanent, Pools: []string{"B"}, At: []int{0}, Msg: "injected outage"}
	oracle := degradedPlanOracle(t, reqBody, 4, rule)

	faulty := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4,
		PartialResults: true, Faults: faults.New(1, rule)})
	faultyTS := httptest.NewServer(faulty.Handler())
	t.Cleanup(func() {
		faultyTS.Close()
		faulty.Shutdown(context.Background())
	})
	if _, v := submitWait(t, faultyTS.URL, "/v1/plan", reqBody); v.State != jobs.Done || !bytes.Equal(compact(t, v.Result), oracle) {
		t.Errorf("degraded single-node plan (%s %s) differs from the library oracle:\n served: %s\n oracle: %s", v.State, v.Error, compact(t, v.Result), oracle)
	}

	workers = newDistWorkers(t, 3, func(_ int, cfg *Config) { cfg.Faults = faults.New(1, rule) })
	_, coordTS = newCoordinator(t, workers, func(cfg *Config) { cfg.PartialResults = true })
	_, v := submitWait(t, coordTS.URL, "/v1/plan", reqBody)
	if v.State != jobs.Done {
		t.Fatalf("degraded distributed plan: %s %s", v.State, v.Error)
	}
	var distRes, oracleRes PlanResult
	if err := json.Unmarshal(v.Result, &distRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(oracle, &oracleRes); err != nil {
		t.Fatal(err)
	}
	if !distRes.Degraded || fmt.Sprint(distRes.FailedPools) != "[B]" || fmt.Sprint(distRes.FailedPools) != fmt.Sprint(oracleRes.FailedPools) {
		t.Errorf("distributed failed_pools = %v (degraded %v), oracle %v", distRes.FailedPools, distRes.Degraded, oracleRes.FailedPools)
	}
	if len(distRes.Failures) != len(oracleRes.Failures) {
		t.Fatalf("distributed failures = %+v, oracle %+v", distRes.Failures, oracleRes.Failures)
	}
	for i, f := range distRes.Failures {
		want := oracleRes.Failures[i]
		if f.Shard != want.Shard || fmt.Sprint(f.Pools) != fmt.Sprint(want.Pools) || !strings.Contains(f.Error, "injected outage") {
			t.Errorf("distributed failures[%d] = %+v, oracle %+v", i, f, want)
		}
		distRes.Failures[i].Error = want.Error
	}
	if got, _ := json.Marshal(distRes); !bytes.Equal(got, oracle) {
		t.Errorf("degraded distributed plan differs from the library oracle beyond the failure text:\n dist:   %s\n oracle: %s", got, oracle)
	}
}

// degradedPlanOracle renders a plan request the library way, which the served
// paths no longer take: a sharded Simulate under the fault rule with partial
// results on (the survivors' aggregates merged in shard order), Plan over the
// merge, BuildPlanResult.
func degradedPlanOracle(t *testing.T, body string, shards int, rule faults.Rule) []byte {
	t.Helper()
	req, err := decodePlan([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := req.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := headroom.New(context.Background(),
		headroom.WithSource(faults.New(1, rule).Source(headroom.NewSimSource(fleet, req.Days))),
		headroom.WithShards(shards), headroom.WithPartialResults(true), headroom.WithPlanConfig(req.PlanConfig()))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sess.Simulate(context.Background(), 0)
	var pe *headroom.PartialError
	if !errors.As(err, &pe) || agg == nil {
		t.Fatalf("oracle simulate: %v, want a partial result", err)
	}
	plans, err := sess.Plan(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(BuildPlanResult(req, plans, pe))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compact strips the line breaks the job view gives an embedded result.
func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistWorkerLossReroutes kills one worker and verifies the job still
// completes with the full, byte-identical result: every shard the dead
// worker owned reroutes to its fallback.
func TestDistWorkerLossReroutes(t *testing.T) {
	leakcheck.Check(t)
	const reqBody = `{"pools":["A","B","C","D"],"days":1,"seed":5}`

	single := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleTS.Close()
		single.Shutdown(context.Background())
	})
	_, want := submitWait(t, singleTS.URL, "/v1/simulate", reqBody)
	if want.State != jobs.Done {
		t.Fatalf("single-node simulate failed: %s", want.Error)
	}

	workers := newDistWorkers(t, 3, nil)
	coord, coordTS := newCoordinator(t, workers, nil)

	// Kill one worker before the job: its shards' dispatches fail at
	// connect and must reroute to the next-ranked worker.
	workers[1].ts.Close()

	code, got := submitWait(t, coordTS.URL, "/v1/simulate", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("simulate with dead worker = %d state %s: %s", code, got.State, got.Error)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("rerouted result differs from single-node:\n dist:   %s\n single: %s", got.Result, want.Result)
	}
	for _, p := range got.Placement {
		if p.AssignedWorker == workers[1].ts.URL {
			t.Errorf("shard %d reported as served by the dead worker", p.Shard)
		}
	}
	if open, total := coord.DistStats(); total != 3 {
		t.Errorf("DistStats total = %d, want 3 (open %d)", total, open)
	}
}

// TestDistPartialDegraded injects a permanent fault for pool B on every
// worker: with partial results enabled the distributed job must degrade,
// naming exactly the lost pool, and the degraded result must never be
// cached.
func TestDistPartialDegraded(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 3, func(i int, cfg *Config) {
		cfg.Faults = faults.New(1,
			faults.Rule{Kind: faults.Permanent, Pools: []string{"B"}, At: []int{0}, Msg: "injected outage"})
	})
	coord, coordTS := newCoordinator(t, workers, func(cfg *Config) {
		cfg.PartialResults = true
	})

	code, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B","C","D"],"days":1}`)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("degraded simulate = %d state %s: %s", code, got.State, got.Error)
	}
	var res SimulateResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked degraded")
	}
	if len(res.FailedPools) != 1 || res.FailedPools[0] != "B" {
		t.Errorf("failed_pools = %v, want exactly [B]", res.FailedPools)
	}
	for _, p := range res.Pools {
		if p.Pool == "B" {
			t.Errorf("degraded result still contains failed pool B")
		}
	}
	pools := map[string]bool{}
	for _, p := range res.Pools {
		pools[p.Pool] = true
	}
	for _, p := range []string{"A", "C", "D"} {
		if !pools[p] {
			t.Errorf("degraded result missing surviving pool %s", p)
		}
	}
	if st := coord.CacheStats(); st.Uncacheable == 0 {
		t.Error("degraded distributed result was not marked uncacheable")
	}
}

// TestDistTransientFaultReroutesThenDegrades gives each of three workers a
// fresh one-shot transient fault on pool B. The coordinator reroutes B's
// shard through all three, each failing once, and the shard is exhausted:
// with partial results on, the job degrades naming [B]; with them off, the
// job fails transiently and ?wait answers 503, and the client's
// resubmission, every one shot spent, completes with the single-node bytes.
func TestDistTransientFaultReroutesThenDegrades(t *testing.T) {
	leakcheck.Check(t)
	const reqBody = `{"pools":["A","B","C","D"],"days":1}`
	start := func(partial bool) (string, []distWorker) {
		t.Helper()
		workers := newDistWorkers(t, 3, func(_ int, cfg *Config) {
			cfg.Faults = faults.New(1, faults.Rule{Kind: faults.Transient, Pools: []string{"B"}, At: []int{0}})
		})
		_, coordTS := newCoordinator(t, workers, func(cfg *Config) { cfg.PartialResults = partial })
		return coordTS.URL, workers
	}
	// Every run below exhausts B's shard once, in the job's one run.
	wantExhaustedOnce := func(partial bool, base string) {
		t.Helper()
		_, metrics := getJSON(t, base+"/metrics")
		text := string(metrics)
		if n := metricValue(t, text, "capserved_dist_reroutes_total"); n != 2 {
			t.Errorf("partial=%v: dist_reroutes_total = %v, want 2", partial, n)
		}
		if n := metricValue(t, text, "capserved_dist_shards_exhausted_total"); n != 1 {
			t.Errorf("partial=%v: dist_shards_exhausted_total = %v, want 1", partial, n)
		}
	}

	base, _ := start(true)
	code, got := submitWait(t, base, "/v1/simulate", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("partial=true: simulate = %d state %s: %s", code, got.State, got.Error)
	}
	wantExhaustedOnce(true, base)
	var res SimulateResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if !res.Degraded || len(res.FailedPools) != 1 || res.FailedPools[0] != "B" {
		t.Errorf("degraded = %v, failed_pools = %v, want a degraded result missing [B]", res.Degraded, res.FailedPools)
	}

	single := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute, Shards: 4})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(func() {
		singleTS.Close()
		single.Shutdown(context.Background())
	})
	_, want := submitWait(t, singleTS.URL, "/v1/simulate", reqBody)
	base, workers := start(false)
	wantTransient503(t, base, reqBody)
	wantExhaustedOnce(false, base)
	// The failed job cancelled its sibling shards; once the workers have let
	// go of them, no shard of the resubmission is turned away for capacity.
	waitFor(t, "the workers to release the cancelled shards", func() bool {
		for _, w := range workers {
			if len(w.srv.shardSem) > 0 {
				return false
			}
		}
		return true
	})
	code, got = submitWait(t, base, "/v1/simulate", reqBody)
	if code != http.StatusOK || got.State != jobs.Done {
		t.Fatalf("partial=false: resubmitted simulate = %d state %s: %s", code, got.State, got.Error)
	}
	if !bytes.Equal(got.Result, want.Result) {
		t.Errorf("resubmitted job's result differs from single-node:\n dist:   %s\n single: %s", got.Result, want.Result)
	}
	wantExhaustedOnce(false, base)
}

// TestDistAllShardsFailedNoPartial: with partial results off, a permanent
// shard failure fails the whole job (422 on wait), mirroring single-node
// semantics.
func TestDistPermanentFailureFailsJob(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 2, func(i int, cfg *Config) {
		cfg.Faults = faults.New(1,
			faults.Rule{Kind: faults.Permanent, Pools: []string{"B"}, At: []int{0}})
	})
	_, coordTS := newCoordinator(t, workers, nil)
	code, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B"],"days":1}`)
	if code != http.StatusUnprocessableEntity || got.State != jobs.Failed {
		t.Fatalf("simulate = %d state %s, want 422/failed", code, got.State)
	}
	if !strings.Contains(got.Error, "injected") && !strings.Contains(got.Error, "shard") {
		t.Errorf("job error does not surface the shard failure: %s", got.Error)
	}
}

// TestDistCancelledJobNotServedDegraded is the regression for a coordinator
// that served a cancelled job as a degraded success: with partial results
// on, a job whose deadline expires mid-fan-out saw its in-flight shards come
// back as "shard deadline" failures, merged the shards that had finished and
// answered 200 naming healthy pools as failed. Caller cancellation must fail
// the whole run, exactly as it does on a single node.
func TestDistCancelledJobNotServedDegraded(t *testing.T) {
	leakcheck.Check(t)
	// Pool B's shard stalls on every worker far past the job deadline; pool
	// A's finishes well inside it.
	workers := newDistWorkers(t, 2, func(i int, cfg *Config) {
		cfg.Faults = faults.New(1,
			faults.Rule{Kind: faults.Stall, Pools: []string{"B"}, At: []int{0}, StallFor: time.Minute})
	})
	coord, coordTS := newCoordinator(t, workers, func(cfg *Config) {
		cfg.PartialResults = true
		cfg.JobTimeout = 2 * time.Second
	})

	code, got := submitWait(t, coordTS.URL, "/v1/simulate", `{"pools":["A","B"],"days":1}`)
	if code != http.StatusGatewayTimeout || got.State != jobs.Failed {
		t.Fatalf("simulate past its deadline = %d state %s, want 504/failed (result %s)", code, got.State, got.Result)
	}
	if !strings.Contains(got.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("job error = %q, want the job's deadline", got.Error)
	}
	if st := coord.CacheStats(); st.Uncacheable != 0 {
		t.Errorf("cancelled job counted %d degraded (uncacheable) results", st.Uncacheable)
	}
}

// TestDistReadyzDegraded drives every peer's breaker open (all dispatches
// fail against dead addresses) and asserts /readyz flips to degraded once
// more than half the fleet is unavailable.
func TestDistReadyzDegraded(t *testing.T) {
	leakcheck.Check(t)
	// Two peers that refuse connections: every dispatch fails fast, and
	// each failed job answers 503 for the client to resubmit. A job runs
	// once, so one 4-shard job may open only one breaker (threshold 3);
	// resubmitting opens both within a few jobs.
	srv := New(Config{
		Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: 30 * time.Second,
		Shards: 4, HedgeAfter: -1,
		Peers:     []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		DistToken: e2eToken,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})

	if code, body := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before any dispatch = %d: %s", code, body)
	}

	const maxJobs = 5
	jobsRun := 0
	for open, _ := srv.DistStats(); open < 2; open, _ = srv.DistStats() {
		if jobsRun == maxJobs {
			t.Fatalf("DistStats = %d/2 open after %d failing jobs, want 2/2", open, jobsRun)
		}
		wantTransient503(t, ts.URL, `{"pools":["A","B","C","D"],"days":1}`)
		jobsRun++
	}
	t.Logf("both breakers open after %d failing jobs", jobsRun)

	code, body := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open fleet = %d: %s", code, body)
	}
	var rz struct {
		Status    string `json:"status"`
		PeersOpen int    `json:"peers_open"`
		Peers     int    `json:"peers"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatalf("unmarshal readyz: %v", err)
	}
	if rz.Status != "degraded" || rz.PeersOpen != 2 || rz.Peers != 2 {
		t.Errorf("readyz = %+v, want degraded 2/2", rz)
	}
}

// TestDistInternalShardAuth: the internal endpoint rejects missing or wrong
// tokens and is absent entirely on nodes without a DistToken.
func TestDistInternalShardAuth(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 1, nil)
	url := workers[0].ts.URL + dist.DefaultPath
	body := `{"days":1,"seed":1,"pools":["B"],"shard":0,"of":1}`

	for name, token := range map[string]string{"missing": "", "wrong": "not-the-token"} {
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if token != "" {
			req.Header.Set(dist.TokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s token: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s token = %d, want 403", name, resp.StatusCode)
		}
	}

	// Correct token: the worker computes the shard and answers its rows — a
	// request without plan fields is a simulate shard, so summary rows.
	resp, raw := postShard(t, workers[0], body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid shard request = %d", resp.StatusCode)
	}
	// The body is the bare JSON array — no envelope — and provenance rides
	// in the headers.
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var rows []PoolSummary
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("shard response body is not JSON rows: %v", err)
	}
	if len(rows) == 0 || rows[0].Pool != "B" || rows[0].Windows == 0 {
		t.Errorf("rows = %+v, want pool B's summaries", rows)
	}
	if n, _ := strconv.Atoi(resp.Header.Get(recordsHeader)); n == 0 || resp.Header.Get(nodeHeader) == "" {
		t.Errorf("headers %s=%q %s=%q, want a record count and the node", recordsHeader,
			resp.Header.Get(recordsHeader), nodeHeader, resp.Header.Get(nodeHeader))
	}

	// A node without DistToken must not serve the endpoint at all.
	bare := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: time.Minute})
	bareTS := httptest.NewServer(bare.Handler())
	t.Cleanup(func() {
		bareTS.Close()
		bare.Shutdown(context.Background())
	})
	code, _ := postJSON(t, bareTS.URL+dist.DefaultPath, body)
	if code != http.StatusNotFound {
		t.Errorf("shard endpoint on tokenless node = %d, want 404", code)
	}
}

// TestDistMetricsExposed asserts the capserved_dist_* inventory appears on
// the coordinator's /metrics after a distributed job.
func TestDistMetricsExposed(t *testing.T) {
	leakcheck.Check(t)
	workers := newDistWorkers(t, 2, nil)
	_, coordTS := newCoordinator(t, workers, nil)
	_, got := submitWait(t, coordTS.URL, "/v1/plan", `{"pools":["A","B"],"days":1}`)
	if got.State != jobs.Done {
		t.Fatalf("plan failed: %s", got.Error)
	}
	_, body := getJSON(t, coordTS.URL+"/metrics")
	text := string(body)

	// The observable contract of one distributed plan job, pinned like the
	// single-node one (TestPlanJobEndToEndObservability): the coordinator's
	// trace plus every worker-side shard trace, and the /metrics inventory.
	traces := [][]spanJSON{fetchTrace(t, coordTS.URL, got.TraceID).Spans}
	deadline := time.Now().Add(5 * time.Second)
	for served := 0; served < 2; { // a worker ends its request span after answering
		traces, served = traces[:1], 0
		for _, w := range workers {
			for _, td := range w.srv.cfg.Tracer.Traces() {
				var spans []spanJSON
				for _, sd := range td.Spans {
					spans = append(spans, spanJSON{SpanID: sd.SpanID, ParentID: sd.ParentID, Name: sd.Name, Attrs: sd.Attrs.Map()})
					if sd.Name == "http.internal_shard" {
						served++
					}
				}
				traces = append(traces, spans)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers finished %d shard requests, want 2", served)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if shape := spanShape(traces...); shape != wantDistPlanSpans {
		t.Errorf("span shape of a distributed plan job changed:\n%s\nwant:\n%s", shape, wantDistPlanSpans)
	}
	wantMetrics := strings.Split(wantNodeMetrics+"\n"+wantDistMetrics, "\n")
	sort.Strings(wantMetrics)
	if shape := metricShape(t, text); shape != strings.Join(wantMetrics, "\n") {
		t.Errorf("/metrics inventory changed:\n%s\nwant:\n%s", shape, strings.Join(wantMetrics, "\n"))
	}
	for _, family := range []string{
		"capserved_dist_shards_dispatched_total",
		"capserved_dist_shard_failures_total",
		"capserved_dist_shard_latency_seconds",
		"capserved_dist_reroutes_total",
		"capserved_dist_hedges_total",
		"capserved_dist_hedge_wins_total",
		"capserved_dist_breaker_skips_total",
		"capserved_dist_shards_exhausted_total",
		"capserved_dist_breaker_transitions_total",
		"capserved_dist_peers",
		"capserved_dist_peers_open",
		"capserved_dist_worker_breaker_state",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	// The coordinator's account of a distributed job's records is the
	// workers': each shard's count rides back in the X-Dist-Records header.
	num := func(v any) int64 { // a JSON-decoded span says float64, a worker's own int64
		if f, ok := v.(float64); ok {
			return int64(f)
		}
		n, _ := v.(int64)
		return n
	}
	var aggregated, served int64
	for i, spans := range traces {
		for _, sd := range spans {
			if i == 0 && sd.Name == "session.aggregate" {
				aggregated += num(sd.Attrs["records"])
			}
			if i > 0 && sd.Name == "dist.shard.serve" {
				served += num(sd.Attrs["records"])
			}
		}
	}
	if served == 0 || aggregated != served {
		t.Errorf("coordinator session.aggregate records = %d, workers' dist.shard.serve records sum to %d", aggregated, served)
	}
	// At least one dispatch happened.
	if !strings.Contains(text, `capserved_dist_shards_dispatched_total{peer="`) {
		t.Error("no per-peer dispatch counter rendered")
	}
	var dispatched float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "capserved_dist_shards_dispatched_total{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				dispatched += v
			}
		}
	}
	if dispatched < 1 {
		t.Errorf("total dispatched = %g, want >= 1", dispatched)
	}
}

// Captured at the same commit as wantPlanSpans and moved with it. Two pools
// make two shards; each shard is a dist.shard under the coordinator's
// simulate.pool and one worker-side http.internal_shard trace, whose
// simulate.pool is where session.plan now runs: the coordinator plans nothing.
const wantDistPlanSpans = `dist.shard <simulate.pool> [attempts hedged pool shard worker]
dist.shard <simulate.pool> [attempts hedged pool shard worker]
dist.shard.serve <http.internal_shard> [bytes coordinator_trace_id of records shard]
dist.shard.serve <http.internal_shard> [bytes coordinator_trace_id of records shard]
http.internal_shard <> [method path request_id]
http.internal_shard <> [method path request_id]
http.plan <> [method path request_id]
jobs.job <http.plan> [job_id kind queue_wait_ns run_ns state]
jobs.queued <jobs.job> [queue_wait_ns]
session.aggregate <session.simulate> [degraded records shards]
session.merge <session.aggregate> [shards]
session.plan <simulate.pool> [pools]
session.plan <simulate.pool> [pools]
session.simulate <jobs.job> [days]
simulate.pool <dist.shard.serve> [degraded pool records shard]
simulate.pool <dist.shard.serve> [degraded pool records shard]
simulate.pool <session.aggregate> [degraded pool records shard]
simulate.pool <session.aggregate> [degraded pool records shard]`

// The coordinator's families beyond wantNodeMetrics.
const wantDistMetrics = `capserved_dist_breaker_skips_total counter {}
capserved_dist_breaker_transitions_total counter {peer,to}
capserved_dist_hedge_wins_total counter {}
capserved_dist_hedges_total counter {}
capserved_dist_peers gauge {}
capserved_dist_peers_open gauge {}
capserved_dist_reroutes_total counter {}
capserved_dist_shard_failures_total counter {peer}
capserved_dist_shard_latency_seconds histogram {peer} le=0.001,0.005,0.025,0.1,0.25,1,2.5,10,30,+Inf
capserved_dist_shards_dispatched_total counter {peer}
capserved_dist_shards_exhausted_total counter {}
capserved_dist_worker_breaker_state gauge {peer}`
