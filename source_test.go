package headroom_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"headroom"
	"headroom/internal/leakcheck"
	"headroom/internal/trace"
)

// poolRecords builds n in-order windows for one (pool, dc) key.
func poolRecords(pool, dc string, n int) []headroom.Record {
	recs := make([]headroom.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, headroom.Record{
			Tick: i, DC: dc, Pool: pool, Server: "s1", Online: true,
			RPS: 100 + float64(i), CPUPct: 10, LatencyMs: 20,
		})
	}
	return recs
}

func TestReplaySourceEmpty(t *testing.T) {
	ctx := context.Background()
	src := headroom.NewReplaySource(nil)

	// Streaming an empty slice emits nothing and succeeds.
	var n int
	if err := src.Stream(ctx, headroom.EachRecord(func(headroom.Record) error { n++; return nil })); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if n != 0 {
		t.Errorf("emitted %d records from an empty source", n)
	}

	// Sharding an empty source degenerates to the source itself.
	if shards := src.Shards(8); len(shards) != 1 {
		t.Errorf("Shards(8) on empty source = %d shards, want 1", len(shards))
	}

	// Aggregating it yields an empty (but valid) aggregator.
	s, err := headroom.New(ctx, headroom.WithSource(src))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	agg, err := s.Simulate(ctx, 0)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if pools := agg.Pools(); len(pools) != 0 {
		t.Errorf("pools = %v, want none", pools)
	}
}

func TestReplaySourceSinglePool(t *testing.T) {
	ctx := context.Background()
	recs := poolRecords("B", "DC 1", 100)
	src := headroom.NewReplaySource(recs)

	// One (pool, dc) key cannot be split further: sharding returns a
	// single shard no matter how many are requested.
	if shards := src.Shards(8); len(shards) != 1 {
		t.Fatalf("Shards(8) with one pool = %d shards, want 1", len(shards))
	}

	// Sharded session aggregation over the single-pool source must match
	// the sequential pass exactly.
	sharded, err := headroom.New(ctx, headroom.WithSource(src), headroom.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(recs)), headroom.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sequential.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := got.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Error("sharded single-pool aggregate differs from sequential")
	}
	if len(gs) != 100 {
		t.Errorf("windows = %d, want 100", len(gs))
	}
}

func TestReplaySourceCancellationMidStream(t *testing.T) {
	// Enough records to cross the replay's per-run cancellation checks.
	var recs []headroom.Record
	for _, pool := range []string{"A", "B", "C"} {
		recs = append(recs, poolRecords(pool, "DC 1", 2000)...)
	}
	src := headroom.NewReplaySource(recs)

	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err := src.Stream(ctx, headroom.EachRecord(func(headroom.Record) error {
		n++
		if n == 1500 {
			cancel() // cancel mid-stream, away from a batch boundary
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream after mid-stream cancel = %v, want context.Canceled", err)
	}
	if n >= len(recs) {
		t.Errorf("stream ran to completion (%d records) despite cancellation", n)
	}

	// A session over the cancelled context refuses to aggregate at all.
	s, err := headroom.New(context.Background(), headroom.WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate over cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestReplaySourceEmitErrorAborts(t *testing.T) {
	recs := poolRecords("B", "DC 1", 50)
	src := headroom.NewReplaySource(recs)
	boom := errors.New("boom")
	var n int
	err := src.Stream(context.Background(), headroom.EachRecord(func(headroom.Record) error {
		n++
		if n == 10 {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error returned as-is", err)
	}
	if n != 10 {
		t.Errorf("emitted %d records after abort, want 10", n)
	}
}

func TestReplaySourceShardsPreserveAllRecords(t *testing.T) {
	// Several pools with unequal sizes: shards must union back to the
	// full stream with per-key order intact.
	var recs []headroom.Record
	for i, pool := range []string{"A", "B", "C", "D", "E"} {
		recs = append(recs, poolRecords(pool, "DC 1", 10*(i+1))...)
	}
	src := headroom.NewReplaySource(recs)
	shards := src.Shards(3)
	if len(shards) != 3 {
		t.Fatalf("Shards(3) = %d shards", len(shards))
	}
	perKey := map[string][]int{}
	var total int
	for _, sh := range shards {
		if err := sh.Stream(context.Background(), headroom.EachRecord(func(r headroom.Record) error {
			total++
			key := fmt.Sprintf("%s@%s", r.Pool, r.DC)
			perKey[key] = append(perKey[key], r.Tick)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(recs) {
		t.Errorf("shards emitted %d records, want %d", total, len(recs))
	}
	for key, ticks := range perKey {
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				t.Errorf("%s: per-key order broken at %d (%d after %d)", key, i, ticks[i], ticks[i-1])
				break
			}
		}
	}
}

// TestReplaySourceRunsAndInterleavedKeys: a replay streams its slice as
// consecutive sub-slices (no copies), and keys that alternate record by
// record — the worst case for the previous-key shortcut in PoolNames and
// Shards — are still named once each and sharded with per-key order intact.
func TestReplaySourceRunsAndInterleavedKeys(t *testing.T) {
	a, b, c := poolRecords("A", "DC 1", 1500), poolRecords("B", "DC 1", 1500), poolRecords("A", "DC 2", 1500)
	var recs []headroom.Record
	for i := range a {
		recs = append(recs, a[i], b[i], c[i])
	}
	src := headroom.NewReplaySource(recs)

	next := 0
	if err := src.Stream(context.Background(), func(run []headroom.Record) error {
		if len(run) == 0 || &run[0] != &recs[next] {
			t.Fatalf("run at record %d (%d records) is not the next sub-slice of the replayed trace", next, len(run))
		}
		next += len(run)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != len(recs) {
		t.Fatalf("runs cover %d records, want %d", next, len(recs))
	}

	if got := src.(headroom.PoolNamer).PoolNames(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("PoolNames = %v, want [A B]", got)
	}
	shards := src.Shards(3)
	if len(shards) != 3 {
		t.Fatalf("Shards(3) = %d shards, want one per key", len(shards))
	}
	for i, sh := range shards {
		var got []headroom.Record
		if err := sh.Stream(context.Background(), func(run []headroom.Record) error {
			got = append(got, run...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Keys sort (A, DC 1), (A, DC 2), (B, DC 1) and deal round-robin.
		if want := [][]headroom.Record{a, c, b}[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d: %d records of %s@%s, want the %d of %s@%s in order",
				i, len(got), got[0].Pool, got[0].DC, len(want), want[0].Pool, want[0].DC)
		}
	}
}

// TestSimSourceDealsPoolsByWeight pins the deal of the benchmark's fleet —
// A/B/D/H, 230/550/960/150 servers — heaviest pool first, each to the lightest
// shard so far: {D} against {A,B,H} at two shards (960 : 930, where the
// round-robin deal gave {A,D} : {B,H} = 1190 : 700), D and B alone at three.
// Pools stay whole and keep configuration order inside a shard, and a fleet
// rebuilt from the same request — what a dist worker does — deals identically.
func TestSimSourceDealsPoolsByWeight(t *testing.T) {
	deal := func(n int) string {
		t.Helper()
		cfg, err := headroom.FilterPools(headroom.DefaultFleet(7), []string{"A", "B", "D", "H"})
		if err != nil {
			t.Fatal(err)
		}
		var shards []string
		for _, sub := range headroom.NewSimSource(cfg, 1).Shards(n) {
			shards = append(shards, strings.Join(headroom.PoolNames(sub), ","))
		}
		return strings.Join(shards, " | ")
	}
	for n, want := range map[int]string{1: "A,B,D,H", 2: "D | A,B,H", 3: "D | B | A,H", 4: "D | B | A | H", 9: "D | B | A | H"} {
		if got := deal(n); got != want {
			t.Errorf("Shards(%d) of A/B/D/H = %s, want %s", n, got, want)
		}
		if coordinator, worker := deal(n), deal(n); coordinator != worker {
			t.Errorf("Shards(%d): coordinator deals %s, worker %s", n, coordinator, worker)
		}
	}
}

// traceBytes renders recs as a CSV or JSON Lines trace.
func traceBytes(t *testing.T, recs []headroom.Record, jsonl bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, jw := trace.NewCSVWriter(&buf), trace.NewJSONLWriter(&buf)
	write, flush := cw.WriteRun, cw.Flush
	if jsonl {
		write, flush = trace.EachRecord(jw.Write), jw.Flush
	}
	if err := write(recs); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSourceMatchesReplay: a trace streamed from its bytes, CSV or JSON
// Lines, aggregates to exactly what replaying the records in memory does, in
// one shard whatever the session's shard count; the reader is consumed, so a
// second Stream is an error.
func TestTraceSourceMatchesReplay(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	var recs []headroom.Record
	for i, pool := range []string{"A", "B", "C"} {
		recs = append(recs, poolRecords(pool, "DC 1", 3000+1000*i)...)
		recs = append(recs, poolRecords(pool, "DC 2", 500)...)
	}
	aggregate := func(src headroom.Source, shards int) []byte {
		t.Helper()
		s, err := headroom.New(ctx, headroom.WithSource(src), headroom.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := s.Aggregate(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := headroom.EncodeAggregator(agg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := aggregate(headroom.NewReplaySource(recs), 1)
	for _, jsonl := range []bool{false, true} {
		data := traceBytes(t, recs, jsonl)
		for _, shards := range []int{1, 3} {
			if got := aggregate(headroom.NewTraceSource(bytes.NewReader(data)), shards); !bytes.Equal(got, want) {
				t.Errorf("jsonl=%v, %d shards: the streamed trace's aggregate differs from the replayed records'", jsonl, shards)
			}
		}
	}

	src := headroom.NewTraceSource(bytes.NewReader(traceBytes(t, recs, false)))
	count := func(run []headroom.Record) error { return nil }
	if err := src.Stream(ctx, count); err != nil {
		t.Fatal(err)
	}
	if err := src.Stream(ctx, count); err == nil {
		t.Error("second Stream of a trace source succeeded, want an error")
	}
}

// TestTraceSourceStopsCleanly: cancellation, an emit error and a panic in
// emit each end a streamed trace with that outcome — emit runs on the caller's
// goroutine, so the session still turns a panic into the shard's error — and
// leave no decoding goroutine behind.
func TestTraceSourceStopsCleanly(t *testing.T) {
	leakcheck.Check(t)
	data := traceBytes(t, poolRecords("B", "DC 1", 20_000), false)

	ctx, cancel := context.WithCancel(context.Background())
	var n int
	err := headroom.NewTraceSource(bytes.NewReader(data)).Stream(ctx, func(run []headroom.Record) error {
		if n += len(run); n >= 5000 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || n >= 20_000 {
		t.Errorf("cancelled mid-stream: %d records, err = %v", n, err)
	}

	boom := errors.New("boom")
	err = headroom.NewTraceSource(bytes.NewReader(data)).Stream(context.Background(), func([]headroom.Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("emit error: got %v", err)
	}

	s, err := headroom.New(context.Background(), headroom.WithSource(headroom.NewTraceSource(bytes.NewReader(data))))
	if err != nil {
		t.Fatal(err)
	}
	_, err = headroom.SimulateRows(context.Background(), s,
		func(ctx context.Context, sub headroom.Source, _, _ int) ([]int, int64, error) {
			return nil, 0, sub.Stream(ctx, func([]headroom.Record) error { panic("emit blew up") })
		}, func(int) (string, string) { return "", "" })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic in emit: err = %v, want the shard's panic as an error", err)
	}
}
