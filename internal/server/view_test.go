package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"headroom"
	"headroom/internal/jobcache"
	"headroom/internal/jobs"
)

// encodeView is the oracle writeView is held to: the job view with its result
// as compact JSON, marshalled whole by encoding/json, then json.Indent with
// an empty prefix and indent, then a newline.
func encodeView(t *testing.T, v jobView, result any) []byte {
	t.Helper()
	if result != nil {
		raw, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		v.Result = raw
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", ""); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), '\n')
}

func TestViewBytesMatchEncodingJSON(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Shards: 1})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	planReq, err := decodePlan([]byte(`{"pools":["B"],"days":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := s.computePlan(ctx, planReq)
	if err != nil {
		t.Fatal(err)
	}
	simReq, err := decodeSimulate([]byte(`{"pools":["G"],"days":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	simulate, _, err := s.computeSimulate(ctx, simReq)
	if err != nil {
		t.Fatal(err)
	}
	escaped := PlanResult{
		Days: 1, Seed: 9, LatencyBudgetMs: 5,
		Plans: []headroom.PoolPlan{{Pool: "<A>&\u2028\u2029", DC: `DC "1"` + "\t</script>"}},
	}
	pe := &headroom.PartialError{Shards: 2, Failed: []headroom.PoolError{
		{Shard: 1, Pools: []string{"D"}, Err: errors.New(`shard 1: source "D" <lost> & gone` + "\u2028")},
	}}
	degraded := BuildPlanResult(planReq, plan.(PlanResult).Plans, pe)

	t0 := time.Date(2026, 10, 16, 12, 0, 0, 123456789, time.UTC)
	done := func(id, kind string) jobs.Snapshot {
		return jobs.Snapshot{ID: id, Kind: kind, State: jobs.Done, TraceID: "4bf92f3577b34da6",
			Created: t0, Started: t0.Add(time.Millisecond), Finished: t0.Add(90 * time.Millisecond)}
	}
	withMeta := func(snap jobs.Snapshot, meta map[string]any) jobs.Snapshot { snap.Meta = meta; return snap }
	cases := []struct {
		name   string
		snap   jobs.Snapshot
		code   int
		result any                    // the compute function's value; nil when the view has none
		pe     *headroom.PartialError // non-nil for a degraded result
	}{
		{name: "done plan", snap: done("j-000001", "plan"), code: 200, result: plan},
		{name: "done simulate", snap: done("j-000002", "simulate"), code: 200, result: simulate},
		{name: "escaped strings", snap: done("j-<&>\u2028", "plan"), code: 200, result: escaped},
		{name: "no plans", snap: done("j-000003", "plan"), code: 200, result: PlanResult{Days: 1}},
		{name: "empty rows", snap: done("j-000004", "simulate"), code: 200, result: SimulateResult{Pools: []PoolSummary{}}},
		{name: "job id holds the result key", snap: done(`j-"result": 0`, "plan"), code: 200, result: plan},
		{name: "failed", code: 422, snap: jobs.Snapshot{ID: "j-000005", Kind: "plan", State: jobs.Failed,
			Err: errors.New(`compute: "result": 0 <bad> & worse`), Created: t0, Started: t0, Finished: t0.Add(time.Second)}},
		{name: "queued", code: 202, snap: jobs.Snapshot{ID: "j-000006", Kind: "simulate", State: jobs.Pending, Created: t0}},
		{name: "running", code: 202, snap: jobs.Snapshot{ID: "j-000007", Kind: "plan", State: jobs.Running,
			Created: t0, Started: t0}},
		{name: "distributed", code: 200, result: plan, snap: withMeta(done("j-000008", "plan"), map[string]any{
			placementMetaKey: []ShardPlacement{
				{Shard: 0, Pools: []string{"B"}, AssignedWorker: "http://w1:8080", Attempts: 1},
				{Shard: 1, Pools: []string{"A", "H"}, AssignedWorker: "http://w2:8080", Hedged: true, Attempts: 2},
			}})},
		{name: "degraded", snap: done("j-000009", "plan"), code: 200, result: degraded, pe: pe},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap
			if tc.result != nil {
				stored, err := s.finishResult(ctx, s.kind(snap.Kind), tc.result, tc.pe)
				if err != nil {
					t.Fatal(err)
				}
				u, uncacheable := stored.(jobcache.Uncacheable)
				if uncacheable != (tc.pe != nil) {
					t.Fatalf("stored %T, want Uncacheable exactly when degraded", stored)
				}
				if uncacheable {
					stored = u.Value // what jobcache.Do hands the job
				}
				snap.Result = stored
				// The stored form compacts back to the compact result bytes.
				var compact bytes.Buffer
				if err := json.Compact(&compact, stored.(viewResult)); err != nil {
					t.Fatal(err)
				}
				if want, _ := json.Marshal(tc.result); !bytes.Equal(compact.Bytes(), want) {
					t.Errorf("stored result compacts to\n%s\nwant\n%s", compact.Bytes(), want)
				}
			}
			rec := httptest.NewRecorder()
			s.writeView(rec, tc.code, snap)
			v, _ := s.viewOf(snap)
			want := encodeView(t, v, tc.result)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("writeView wrote\n%s\nencoding/json writes\n%s", got, want)
			}
			if rec.Code != tc.code {
				t.Errorf("status %d, want %d", rec.Code, tc.code)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("Content-Length %s, want %d", cl, len(want))
			}
		})
	}
}

// discardWriter is a ResponseWriter that counts the body and keeps none of it.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// A cache hit copies the stored view bytes: what it allocates does not grow
// with the result. The bound is far below what encoding this 24 KB view on
// every hit would allocate.
func TestCacheHitAllocationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("plans pools A, B, D and H once")
	}
	const hits, maxPerHit = 200, 16 << 10
	s := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 16, JobTimeout: time.Minute})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	serve := func() *discardWriter {
		// http.NewRequest, not httptest's: that one parses the request through
		// a 4 KB bufio.Reader, which would count as the server's.
		r, err := http.NewRequest(http.MethodPost, "/v1/plan?wait=true", strings.NewReader(abdhPlan))
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		return w
	}
	if n := serve().n; n < 20<<10 {
		t.Fatalf("view is %d bytes; the bound is meant for a result of tens of KB", n)
	}
	serve() // the first hit warms the encoder's type cache and buffer pools

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if st := s.CacheStats(); st.Hits != hits+1 {
		t.Fatalf("cache hits = %d, want %d", st.Hits, hits+1)
	}
	if perHit := (after.TotalAlloc - before.TotalAlloc) / hits; perHit > maxPerHit {
		t.Errorf("a cache hit allocates %d B, want <= %d", perHit, maxPerHit)
	} else {
		t.Logf("a cache hit allocates %d B", perHit)
	}
}

// TestPlanViewBytesBounded holds the done view of capbench's cache_hot plan
// to its size, since a client decodes every byte of it: one value per line
// and no indentation, so no line starts with whitespace.
func TestPlanViewBytesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("plans pools A, B, D and H once")
	}
	const maxViewBytes = 25_000
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/v1/plan?wait=true", abdhPlan)
	if code != http.StatusOK {
		t.Fatalf("plan = %d: %s", code, body)
	}
	if len(body) > maxViewBytes {
		t.Errorf("view is %d bytes, want <= %d", len(body), maxViewBytes)
	} else {
		t.Logf("view is %d bytes", len(body))
	}
	for i, line := range bytes.Split(body, []byte("\n")) {
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			t.Fatalf("line %d starts with whitespace: %q", i+1, line)
		}
	}
}
