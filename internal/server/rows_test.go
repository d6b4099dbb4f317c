package server

// The row wire, pinned: what a worker answers on POST /v1/internal/shard (one
// row per (pool, datacenter), JSON, kilobytes), that those rows survive the
// wire bit for bit, and that the shards' rows put together are what the
// library's aggregate-then-plan path computes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"headroom"
	"headroom/internal/dist"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
)

// postShard posts one shard request to a worker and returns the response.
func postShard(t *testing.T, w distWorker, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+dist.DefaultPath, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(dist.TokenHeader, e2eToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestDistShardRowsWire: the benchmark's fleet (A/B/D/H, one day) over three
// shards. A bare shard request — no plan fields, the form cmd/capbench posts —
// answers summary rows, one with plan fields answers plan rows; both are JSON,
// together under 64 KB where the encoded aggregates were 11.4 MB, and put in
// (pool, datacenter) order they are the rows the library oracle (Simulate on
// the merged aggregate, then Plan) renders.
func TestDistShardRowsWire(t *testing.T) {
	leakcheck.Check(t)
	w := newDistWorkers(t, 1, nil)[0]
	req, err := decodePlan([]byte(`{"pools":["A","B","D","H"],"days":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := req.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := headroom.New(context.Background(), headroom.WithSource(headroom.NewSimSource(fleet, req.Days)),
		headroom.WithShards(1), headroom.WithPlanConfig(req.PlanConfig()))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sess.Simulate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := sess.Plan(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := BuildSimulateResult(req.SimulateRequest, agg, nil)
	if err != nil {
		t.Fatal(err)
	}

	for kind, c := range map[string]struct {
		fields string
		oracle any
	}{
		"simulate": {``, sim.Pools},
		"plan":     {`,"latency_budget_ms":5,"plan_seed":2`, plans},
	} {
		var rows []json.RawMessage
		total := 0
		for shard := 0; shard < 3; shard++ {
			resp, raw := postShard(t, w, `{"days":1,"seed":3,"pools":["A","B","D","H"]`+c.fields+
				`,"shard":`+strconv.Itoa(shard)+`,"of":3}`)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("%s shard %d = %d %q: %s", kind, shard, resp.StatusCode, resp.Header.Get("Content-Type"), raw)
			}
			var part []json.RawMessage
			if err := json.Unmarshal(raw, &part); err != nil || len(part) == 0 {
				t.Fatalf("%s shard %d: %d rows, err %v", kind, shard, len(part), err)
			}
			rows, total = append(rows, part...), total+len(raw)
		}
		if total >= 64<<10 {
			t.Errorf("%s rows of three shards = %d bytes, want < 64 KB", kind, total)
		}
		want, err := json.Marshal(c.oracle)
		if err != nil {
			t.Fatal(err)
		}
		if joined := joinRows(t, rows); !bytes.Equal(joined, want) {
			t.Errorf("%s rows of the three shards, in (pool, dc) order, differ from the library oracle:\n rows:   %.300s\n oracle: %.300s", kind, joined, want)
		}
	}
}

// joinRows orders raw rows by their (pool, dc) fields — either row type's
// JSON, whatever the field names' case — and renders them as one array.
func joinRows(t *testing.T, rows []json.RawMessage) []byte {
	t.Helper()
	type keyed struct {
		pool, dc string
		raw      json.RawMessage
	}
	ks := make([]keyed, len(rows))
	for i, raw := range rows {
		var k struct{ Pool, DC string }
		if err := json.Unmarshal(raw, &k); err != nil {
			t.Fatal(err)
		}
		ks[i] = keyed{k.Pool, k.DC, raw}
	}
	sort.Slice(ks, func(i, j int) bool {
		return ks[i].pool < ks[j].pool || ks[i].pool == ks[j].pool && ks[i].dc < ks[j].dc
	})
	parts := make([][]byte, len(ks))
	for i, k := range ks {
		parts[i] = k.raw
	}
	return append(append([]byte{'['}, bytes.Join(parts, []byte{','})...), ']')
}

// TestDistOldWorkerAnswerNamed: a worker from before rows crossed the wire
// answers 200 with an encoded aggregate as application/octet-stream. The shard
// fails with an error that says what happened and what to do — not with a JSON
// syntax error — and, being the same on every resubmission, it is permanent:
// a 422, after one dispatch.
func TestDistOldWorkerAnswerNamed(t *testing.T) {
	leakcheck.Check(t)
	var hits atomic.Int32
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write([]byte("HRAG\x01 not rows"))
	}))
	t.Cleanup(old.Close)
	_, coordTS := newCoordinator(t, []distWorker{{ts: old}}, nil)
	code, v := submitWait(t, coordTS.URL, "/v1/plan", `{"pools":["G"],"days":1}`)
	if code != http.StatusUnprocessableEntity || v.State != jobs.Failed || hits.Load() != 1 {
		t.Fatalf("plan against an old worker = %d %s after %d dispatches, want 422 failed after 1", code, v.State, hits.Load())
	}
	for _, want := range []string{old.URL, `"application/octet-stream"`, "not JSON rows", "upgrade workers before coordinators"} {
		if !strings.Contains(v.Error, want) {
			t.Errorf("job error %q does not say %q", v.Error, want)
		}
	}
}

// splitSource is a ShardedSource over hand-picked sub-sources.
type splitSource struct{ subs []headroom.Source }

func (s splitSource) Shards(int) []headroom.Source { return s.subs }
func (s splitSource) Stream(ctx context.Context, emit func([]headroom.Record) error) error {
	for _, sub := range s.subs {
		if err := sub.Stream(ctx, emit); err != nil {
			return err
		}
	}
	return nil
}

// TestEmptyShardContributesNoRows: a shard whose source yields no records
// reduces to zero rows and no error — core.Plan calls an aggregate without
// pools an error, and would fail the shard — so the fan-out's rows are those of
// the merged plan, which succeeds today.
func TestEmptyShardContributesNoRows(t *testing.T) {
	fleet, err := headroom.FilterPools(headroom.DefaultFleet(1), []string{"G"})
	if err != nil {
		t.Fatal(err)
	}
	src := splitSource{subs: []headroom.Source{headroom.NewSimSource(fleet, 1), headroom.NewReplaySource(nil)}}
	sess, err := headroom.New(context.Background(), headroom.WithSource(src), headroom.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sess.Simulate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sess.Plan(context.Background(), agg)
	if err != nil {
		t.Fatalf("the merged plan: %v", err)
	}
	want, _ := json.Marshal(merged)

	rows, err := headroom.SimulateRows(context.Background(), sess, reduceShard(sess, planRows), planKey)
	if err != nil {
		t.Fatalf("plan rows with an empty shard: %v", err)
	}
	if got, _ := json.Marshal(rows); !bytes.Equal(got, want) {
		t.Errorf("plan rows with an empty shard differ from the merged plan:\n rows:   %.300s\n merged: %.300s", got, want)
	}
	sums, err := headroom.SimulateRows(context.Background(), sess, reduceShard(sess, summaryRows), summaryKey)
	if err != nil || len(sums) != len(rows) {
		t.Errorf("summary rows with an empty shard: %d rows, err %v, want %d", len(sums), err, len(rows))
	}
}

// FuzzRowsRoundTrip: every finite float64 a row can carry crosses the JSON
// wire bit for bit — encoding/json writes the shortest decimal that reads back
// as the same float64 — so marshal → unmarshal → marshal is a byte fixed point
// for both row types. The 200-seed form over whole generated cases is
// internal/diffcheck's TestRowsRoundTrip.
func FuzzRowsRoundTrip(f *testing.F) {
	f.Add(math.Copysign(0, -1), 5e-324, math.MaxFloat64)
	f.Add(2.2250738585072009e-308, -math.SmallestNonzeroFloat64, 1.0/3)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("encoding/json rejects NaN and ±Inf: such a result never rendered")
			}
		}
		plan := headroom.PoolPlan{Pool: "P", DC: "dc", SavingsFrac: a, BaselineLatencyMs: b, ForecastLatencyMs: c}
		plan.Model.CPU.Slope, plan.Model.CPU.Intercept, plan.Model.CPU.R2 = a, b, c
		plan.Model.Latency.Coeffs = []float64{a, b, c}
		sum := PoolSummary{Pool: "P", DC: "dc", MeanRPSPerServer: a, MeanCPUPct: b, MeanLatencyMs: c, PeakLatencyMs: a}
		fixedPoint(t, []headroom.PoolPlan{plan})
		fixedPoint(t, []PoolSummary{sum})

		var back []PoolSummary
		raw, _ := json.Marshal([]PoolSummary{sum})
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		for i, pair := range [][2]float64{{a, back[0].MeanRPSPerServer}, {b, back[0].MeanCPUPct}, {c, back[0].MeanLatencyMs}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("float %d: %x crossed the wire as %x", i, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	})
}

// fixedPoint fails unless rows → JSON → rows → JSON ends in the bytes it
// started with.
func fixedPoint[R any](t *testing.T, rows []R) {
	t.Helper()
	first, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []R
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("%T: not a fixed point of the wire:\n first:  %s\n second: %s", rows, first, second)
	}
}
