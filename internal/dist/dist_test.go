package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"headroom/internal/breaker"
	"headroom/internal/leakcheck"
	"headroom/internal/retry"
)

// TestDistRendezvousStability is the placement contract: removing one peer
// moves only the shards that peer owned (each to its second-ranked peer);
// every other shard keeps both its owner and its fallback order.
func TestDistRendezvousStability(t *testing.T) {
	peers := []string{"http://w1", "http://w2", "http://w3", "http://w4", "http://w5"}
	const removed = "http://w3"
	survivors := make([]string, 0, len(peers)-1)
	for _, p := range peers {
		if p != removed {
			survivors = append(survivors, p)
		}
	}

	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("pool-%02d,pool-%02d", i, i+1)
	}

	moved := 0
	for _, key := range keys {
		before := Rank(key, peers)
		after := Rank(key, survivors)
		if before[0] == removed {
			moved++
			if after[0] != before[1] {
				t.Errorf("key %q: owner %s removed, expected fallback %s, got %s",
					key, removed, before[1], after[0])
			}
			continue
		}
		if after[0] != before[0] {
			t.Errorf("key %q: owner moved %s -> %s though %s was not its owner",
				key, before[0], after[0], removed)
		}
		// The full fallback order is the old order with the removed peer
		// spliced out — nothing else reshuffles.
		want := make([]string, 0, len(before)-1)
		for _, p := range before {
			if p != removed {
				want = append(want, p)
			}
		}
		for i := range want {
			if after[i] != want[i] {
				t.Errorf("key %q: fallback order changed at %d: got %v want %v", key, i, after, want)
				break
			}
		}
	}
	if moved == 0 {
		t.Fatalf("degenerate test: %s owned no keys", removed)
	}
	if moved == len(keys) {
		t.Fatalf("degenerate test: %s owned every key", removed)
	}
	t.Logf("removing %s moved %d/%d keys", removed, moved, len(keys))
}

// hostMux routes loopback requests by the fake host in the peer URL, so one
// handler emulates a multi-worker fleet.
type hostMux struct {
	mu       sync.Mutex
	handlers map[string]http.HandlerFunc
}

func newHostMux() *hostMux { return &hostMux{handlers: map[string]http.HandlerFunc{}} }

func (m *hostMux) set(host string, h http.HandlerFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[host] = h
}

func (m *hostMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	h := m.handlers[r.URL.Host]
	m.mu.Unlock()
	if h == nil {
		http.Error(w, "no such worker", http.StatusBadGateway)
		return
	}
	h(w, r)
}

func newTestClient(t *testing.T, mux http.Handler, cfg Config) *Client {
	t.Helper()
	if cfg.Token == "" {
		cfg.Token = "secret"
	}
	cfg.Transport = Loopback{Handler: mux}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// metric reads one series from the client's capserved_dist_* exposition, as
// a /metrics scrape sees it: series is the name with its rendered labels.
func metric(t *testing.T, c *Client, series string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.cfg.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no series %s in:\n%s", series, buf.String())
	return 0
}

// peerSeries names a per-worker series.
func peerSeries(name, peer string) string { return fmt.Sprintf("%s{peer=%q}", name, peer) }

func okWorker(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "result-from-%s", name)
	}
}

func TestDistDispatchSuccess(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	mux.set("w1", okWorker("w1"))
	mux.set("w2", okWorker("w2"))
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1", "http://w2"}})

	sh := Shard{Key: "PoolA", Index: 0, Of: 2, Body: []byte(`{}`)}
	owner := Rank(sh.Key, c.peers)[0]
	res, err := c.Dispatch(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != owner {
		t.Errorf("worker = %s, want rendezvous owner %s", res.Worker, owner)
	}
	if res.Hedged || res.Attempts != 1 {
		t.Errorf("hedged=%v attempts=%d, want false/1", res.Hedged, res.Attempts)
	}
	wantBody := "result-from-" + owner[len("http://"):]
	if string(res.Body) != wantBody {
		t.Errorf("body = %q, want %q", res.Body, wantBody)
	}
}

func TestDistDispatchSendsHeaders(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	var gotToken, gotShard atomic.Value
	mux.set("w1", func(w http.ResponseWriter, r *http.Request) {
		gotToken.Store(r.Header.Get(TokenHeader))
		gotShard.Store(r.Header.Get(ShardHeader))
		w.WriteHeader(http.StatusOK)
	})
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1"}, Token: "tok-123"})
	if _, err := c.Dispatch(context.Background(), Shard{Key: "k", Index: 2, Of: 5}); err != nil {
		t.Fatal(err)
	}
	if got := gotToken.Load(); got != "tok-123" {
		t.Errorf("token header = %v, want tok-123", got)
	}
	if got := gotShard.Load(); got != "2/5" {
		t.Errorf("shard header = %v, want 2/5", got)
	}
}

// TestDistDispatchReroutes: the owner answers 503, so the shard moves to
// the next-ranked worker and still succeeds.
func TestDistDispatchReroutes(t *testing.T) {
	leakcheck.Check(t)
	peers := []string{"http://w1", "http://w2"}
	order := Rank("PoolB", peers)
	mux := newHostMux()
	mux.set(order[0][len("http://"):], func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	})
	mux.set(order[1][len("http://"):], okWorker("backup"))

	c := newTestClient(t, mux, Config{Peers: peers})

	res, err := c.Dispatch(context.Background(), Shard{Key: "PoolB", Index: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != order[1] {
		t.Errorf("worker = %s, want fallback %s", res.Worker, order[1])
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	// Counted where it happened, on the series that names it.
	for _, ct := range []struct {
		name string
		got  int64
		want int64
	}{
		{"reroutes", metric(t, c, "capserved_dist_reroutes_total"), 1},
		{"hedges", metric(t, c, "capserved_dist_hedges_total"), 0},
		{"dispatched to the owner", metric(t, c, peerSeries("capserved_dist_shards_dispatched_total", order[0])), 1},
		{"failures of the owner", metric(t, c, peerSeries("capserved_dist_shard_failures_total", order[0])), 1},
		{"dispatched to the fallback", metric(t, c, peerSeries("capserved_dist_shards_dispatched_total", order[1])), 1},
		{"failures of the fallback", metric(t, c, peerSeries("capserved_dist_shard_failures_total", order[1])), 0},
		{"latency samples of the fallback", metric(t, c, peerSeries("capserved_dist_shard_latency_seconds_count", order[1])), 1},
	} {
		if ct.got != ct.want {
			t.Errorf("%s = %d, want %d", ct.name, ct.got, ct.want)
		}
	}
}

// TestDistDispatchPermanentFailureNoReroute: a 4xx means the request itself
// is bad; retrying on another worker would waste its time.
func TestDistDispatchPermanentFailureNoReroute(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	var backupHits atomic.Int64
	peers := []string{"http://w1", "http://w2"}
	order := Rank("k", peers)
	mux.set(order[0][len("http://"):], func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown pool"}`, http.StatusUnprocessableEntity)
	})
	mux.set(order[1][len("http://"):], func(w http.ResponseWriter, r *http.Request) {
		backupHits.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	c := newTestClient(t, mux, Config{Peers: peers})

	_, err := c.Dispatch(context.Background(), Shard{Key: "k"})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *ShardError", err)
	}
	if se.Transient || retry.IsTransient(err) {
		t.Errorf("4xx marked transient")
	}
	var we *WorkerError
	if !errors.As(err, &we) || we.Status != http.StatusUnprocessableEntity || we.Msg != "unknown pool" {
		t.Errorf("unexpected worker error: %+v", we)
	}
	if n := backupHits.Load(); n != 0 {
		t.Errorf("backup worker hit %d times after permanent failure", n)
	}
}

// TestDispatchRejectsOversizedResponse: a coordinator buffers at most
// maxResponseBytes of a worker's answer — rows are kilobytes, so more than the
// request-side bound is a misbehaving worker. The attempt fails naming the
// peer and the bound, and is charged to that worker's breaker: three of them
// in a row open it.
func TestDispatchRejectsOversizedResponse(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	mux.set("w1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(make([]byte, maxResponseBytes+1))
	})
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1"}})

	for i := 1; i <= 3; i++ {
		_, err := c.Dispatch(context.Background(), Shard{Key: "k"})
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("dispatch %d: error = %v, want *ShardError", i, err)
		}
		for _, want := range []string{"http://w1", fmt.Sprintf("exceeds %d bytes", 8<<20)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("dispatch %d: error %q does not name %q", i, err, want)
			}
		}
	}
	if got := c.workers["http://w1"].breaker.State(); got != breaker.Open {
		t.Errorf("worker breaker = %s after three oversized responses, want open", got)
	}
	if got := metric(t, c, peerSeries("capserved_dist_shard_failures_total", "http://w1")); got != 3 {
		t.Errorf("failures of the worker = %d, want 3", got)
	}
}

// TestDistDispatchExhausted: every worker fails transiently, so the shard
// errors out as transient with the last failure attached.
func TestDistDispatchExhausted(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	mux.set("w1", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	mux.set("w2", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1", "http://w2"}})

	_, err := c.Dispatch(context.Background(), Shard{Key: "k", Index: 3})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *ShardError", err)
	}
	if !se.Transient || se.Shard != 3 || se.Attempts != 2 {
		t.Errorf("ShardError = %+v, want transient, shard 3, 2 attempts", se)
	}
	// The one sentinel: a transient ShardError is retryable to the job queue
	// as it stands, also from inside a wrapping error.
	if !retry.IsTransient(err) || !retry.IsTransient(fmt.Errorf("job: %w", err)) {
		t.Errorf("transient ShardError does not satisfy errors.Is(retry.ErrTransient): %v", err)
	}
}

// TestDistDispatchHedges: the owner stalls past the hedge delay, the hedge
// goes to the fallback and wins, and the slow primary is abandoned.
func TestDistDispatchHedges(t *testing.T) {
	leakcheck.Check(t)
	peers := []string{"http://w1", "http://w2"}
	order := Rank("slow-key", peers)
	release := make(chan struct{})
	mux := newHostMux()
	mux.set(order[0][len("http://"):], func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.set(order[1][len("http://"):], okWorker("hedge"))
	defer close(release)

	c := newTestClient(t, mux, Config{
		Peers:      peers,
		HedgeAfter: 5 * time.Millisecond,
	})

	res, err := c.Dispatch(context.Background(), Shard{Key: "slow-key"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged || res.Worker != order[1] {
		t.Errorf("result = worker %s hedged %v, want hedge winner %s", res.Worker, res.Hedged, order[1])
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
	hedges, wins := metric(t, c, "capserved_dist_hedges_total"), metric(t, c, "capserved_dist_hedge_wins_total")
	if reroutes := metric(t, c, "capserved_dist_reroutes_total"); hedges != 1 || wins != 1 || reroutes != 0 {
		t.Errorf("hedges %d, hedge wins %d, reroutes %d; want 1, 1, 0", hedges, wins, reroutes)
	}
}

// TestDistDispatchBreakerSkips: once a worker's breaker opens, later
// dispatches skip it without spending an attempt.
func TestDistDispatchBreakerSkips(t *testing.T) {
	leakcheck.Check(t)
	peers := []string{"http://w1", "http://w2"}
	order := Rank("br-key", peers)
	badHost := order[0][len("http://"):]
	var badHits atomic.Int64
	mux := newHostMux()
	mux.set(badHost, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	})
	mux.set(order[1][len("http://"):], okWorker("good"))

	c := newTestClient(t, mux, Config{Peers: peers})

	// The first three dispatches fail on the owner (the third opens its
	// breaker) and reroute.
	for i := 1; i <= 3; i++ {
		if _, err := c.Dispatch(context.Background(), Shard{Key: "br-key"}); err != nil {
			t.Fatal(err)
		}
	}
	if c.workers[order[0]].breaker.State() != breaker.Open {
		t.Fatalf("owner breaker = %v, want Open", c.workers[order[0]].breaker.State())
	}
	// The fourth dispatch must skip the owner entirely.
	res, err := c.Dispatch(context.Background(), Shard{Key: "br-key"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Worker != order[1] {
		t.Errorf("fourth dispatch: worker %s attempts %d, want %s/1", res.Worker, res.Attempts, order[1])
	}
	if badHits.Load() != 3 {
		t.Errorf("owner was contacted %d times, want 3", badHits.Load())
	}
	skips := metric(t, c, "capserved_dist_breaker_skips_total")
	if opened := metric(t, c, fmt.Sprintf("capserved_dist_breaker_transitions_total{peer=%q,to=\"open\"}", order[0])); skips != 1 || opened != 1 {
		t.Errorf("breaker skips %d, owner transitions to open %d; want 1, 1", skips, opened)
	}
	open, total := c.OpenBreakers()
	if open != 1 || total != 2 {
		t.Errorf("OpenBreakers = %d/%d, want 1/2", open, total)
	}
}

// TestDistDispatchAllBreakersOpen: with every breaker open, Dispatch fails
// fast and transiently instead of hanging.
func TestDistDispatchAllBreakersOpen(t *testing.T) {
	leakcheck.Check(t)
	mux := newHostMux()
	mux.set("w1", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1"}})
	for i := 1; i <= 3; i++ {
		if _, err := c.Dispatch(context.Background(), Shard{Key: "k"}); err == nil {
			t.Fatalf("dispatch %d succeeded, want failure", i)
		}
	}
	_, err := c.Dispatch(context.Background(), Shard{Key: "k"})
	var se *ShardError
	if !errors.As(err, &se) || !se.Transient || se.Attempts != 0 {
		t.Fatalf("error = %v, want transient ShardError with 0 attempts", err)
	}
}

// TestDistDispatchDeadline: a dispatch ends at the earlier of shardTimeout
// (one minute) and the caller's deadline.
func TestDistDispatchDeadline(t *testing.T) {
	leakcheck.Check(t)
	block := make(chan struct{})
	defer close(block)
	var deadline time.Time
	mux := newHostMux()
	mux.set("fast", func(w http.ResponseWriter, r *http.Request) {
		deadline, _ = r.Context().Deadline()
		w.Write([]byte("ok"))
	})
	mux.set("w1", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})

	// Without a caller deadline, the worker is asked under shardTimeout's.
	fast := newTestClient(t, mux, Config{Peers: []string{"http://fast"}, HedgeAfter: -1})
	start := time.Now()
	if _, err := fast.Dispatch(context.Background(), Shard{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if deadline.Before(start.Add(time.Minute)) || deadline.After(time.Now().Add(time.Minute)) {
		t.Errorf("dispatch deadline %s after the call began, want 1m", deadline.Sub(start))
	}

	// The caller's deadline, earlier than shardTimeout, ends the dispatch.
	c := newTestClient(t, mux, Config{Peers: []string{"http://w1"}, HedgeAfter: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Dispatch(ctx, Shard{Key: "k"})
	var se *ShardError
	if !errors.As(err, &se) || !se.Transient {
		t.Fatalf("error = %v, want transient ShardError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not wrap DeadlineExceeded: %v", err)
	}
}

func TestDistNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no peers", Config{Token: "t"}},
		{"no token", Config{Peers: []string{"http://w1"}}},
		{"relative peer", Config{Peers: []string{"w1:8080"}, Token: "t"}},
		{"bad scheme", Config{Peers: []string{"ftp://w1"}, Token: "t"}},
		{"blank peers", Config{Peers: []string{"", "  "}, Token: "t"}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
	c, err := New(Config{Peers: []string{"http://w1/", "http://w1", "http://w2"}, Token: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.peers; len(got) != 2 || got[0] != "http://w1" || got[1] != "http://w2" {
		t.Errorf("peers = %v, want deduped [http://w1 http://w2]", got)
	}
}

// BenchmarkDistDispatchOverhead measures pure coordination cost — placement,
// breaker admission, hedge arming, header assembly — over an in-process
// loopback transport with a trivially fast worker. CI gates on this staying
// in the low-microsecond range.
func BenchmarkDistDispatchOverhead(b *testing.B) {
	mux := newHostMux()
	for _, h := range []string{"w1", "w2", "w3"} {
		mux.set(h, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("ok"))
		})
	}
	c, err := New(Config{
		Peers:     []string{"http://w1", "http://w2", "http://w3"},
		Token:     "bench",
		Transport: Loopback{Handler: mux},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sh := Shard{Key: "PoolA,PoolB", Index: 0, Of: 1, Body: []byte(`{"days":1}`)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Dispatch(ctx, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistDispatchSlowLoserNeutral forces a slow loser: the rendezvous
// primary streams a partial body and stalls, the hedge wins, and the
// dispatch cancels the primary mid-read, three times over. The cancelled
// loser must neither block nor leak (leakcheck) and must not be charged a
// breaker failure — three misattributed Failures in a row would open an
// innocent worker's breaker. Uses real HTTP servers because the stall happens
// while streaming the response body, which the loopback transport cannot
// model.
func TestDistDispatchSlowLoserNeutral(t *testing.T) {
	leakcheck.Check(t)

	var slowHost atomic.Value // "host:port" of the rendezvous primary
	slowHost.Store("")
	slowDone := make(chan struct{}, 3)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Host != slowHost.Load().(string) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, "fast-winner")
			return
		}
		defer func() { slowDone <- struct{}{} }()
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "partial-")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // stall mid-body until the dispatch cancels us
	})
	s1 := httptest.NewServer(handler)
	defer s1.Close()
	s2 := httptest.NewServer(handler)
	defer s2.Close()

	peers := []string{s1.URL, s2.URL}
	order := Rank("slow-loser", peers)
	slowHost.Store(strings.TrimPrefix(order[0], "http://"))

	c, err := New(Config{
		Peers:      peers,
		Token:      "secret",
		HedgeAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Each loser's attempt goroutine finishes after Dispatch returns; wait
	// for the cancel to reach the stalled handler, and after the last one
	// hold the breaker under observation long enough for the losers'
	// accounting to land.
	for i := 1; i <= 3; i++ {
		res, err := c.Dispatch(context.Background(), Shard{Key: "slow-loser", Index: 0, Of: 2, Body: []byte(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Hedged || res.Worker != order[1] {
			t.Fatalf("dispatch %d: result = worker %s hedged %v, want hedge winner %s", i, res.Worker, res.Hedged, order[1])
		}
		select {
		case <-slowDone:
		case <-time.After(5 * time.Second):
			t.Fatal("cancel never reached the stalled primary")
		}
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if st := c.workers[order[0]].breaker.State(); st != breaker.Closed {
			t.Fatalf("loser breaker = %v; a dispatch-cancelled attempt was charged as a failure", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := metric(t, c, peerSeries("capserved_dist_shard_failures_total", order[0])) +
		metric(t, c, peerSeries("capserved_dist_shard_failures_total", order[1])); n != 0 {
		t.Errorf("failures counted = %d, want 0 (cancelled loser is neutral)", n)
	}
}
