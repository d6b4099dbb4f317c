package headroom_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"headroom"
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
	// Enough records to cross emitAll's periodic cancellation checks.
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
