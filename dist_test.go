package headroom_test

// Tests for the distributed-execution hooks: single-shard aggregation
// (Session.AggregateShard) and the aggregator wire codec. The merge that
// distributed degradation rests on is pinned in partial_merge_test.go.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"headroom"
	"headroom/internal/faults"
)

// TestAggregateShardMergeIdentical is the distributed-identity property: an
// "emulated cluster" that runs every shard through AggregateShard, encodes
// each aggregate, decodes it on the other side and merges in shard order
// must equal a plain single-session run exactly.
func TestAggregateShardMergeIdentical(t *testing.T) {
	ctx := context.Background()
	cfg := headroom.DefaultFleet(9)
	cfg.Pools = cfg.Pools[:4] // four pools so the split yields all four shards
	src := headroom.NewSimSource(cfg, 1)

	whole, err := headroom.New(ctx, headroom.WithSource(src), headroom.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Aggregate(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	const of = 4
	var merged *headroom.Aggregator
	var records int64
	for i := 0; i < of; i++ {
		// A fresh session per shard, as each remote worker would build.
		s, err := headroom.New(ctx, headroom.WithSource(headroom.NewSimSource(cfg, 1)))
		if err != nil {
			t.Fatal(err)
		}
		agg, n, err := s.AggregateShard(ctx, i, of)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		records += n
		enc, err := headroom.EncodeAggregator(agg)
		if err != nil {
			t.Fatalf("shard %d encode: %v", i, err)
		}
		dec, err := headroom.DecodeAggregator(enc)
		if err != nil {
			t.Fatalf("shard %d decode: %v", i, err)
		}
		if merged == nil {
			merged = dec
		} else {
			merged.Merge(dec)
		}
	}
	if records == 0 {
		t.Fatal("no records consumed across shards")
	}

	wantB, err := headroom.EncodeAggregator(want)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := headroom.EncodeAggregator(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("distributed merge differs from single-session aggregate (%d vs %d bytes)", len(gotB), len(wantB))
	}
}

func TestAggregateShardValidation(t *testing.T) {
	ctx := context.Background()
	s, err := headroom.New(ctx, headroom.WithSource(headroom.NewSimSource(multiPoolFleet(1), 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ index, of int }{
		{-1, 2}, {2, 2}, {0, 0}, {5, 3},
	} {
		if _, _, err := s.AggregateShard(ctx, tc.index, tc.of); err == nil {
			t.Errorf("AggregateShard(%d, %d) succeeded, want error", tc.index, tc.of)
		}
	}
	// A session without a source fails with ErrNoSource.
	bare, err := headroom.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.AggregateShard(ctx, 0, 1); !errors.Is(err, headroom.ErrNoSource) {
		t.Errorf("no-source AggregateShard error = %v, want ErrNoSource", err)
	}
}

// TestAggregateShardPanicIsolated pins the worker half of panic isolation:
// a panic inside the shard's stream must come back as an error naming the
// shard — exactly as the in-process sharded fan-out reports it — instead of
// unwinding into the caller (which, on a dist worker, would kill the whole
// process and every other shard it serves).
func TestAggregateShardPanicIsolated(t *testing.T) {
	ctx := context.Background()
	cfg := headroom.DefaultFleet(9)
	cfg.Pools = cfg.Pools[:2]
	inj := faults.New(7, faults.Rule{Kind: faults.Panic, Pools: []string{cfg.Pools[1].Name}, At: []int{0}, Msg: "injected crash"})
	src := headroom.NewSimSource(cfg, 1)
	s, err := headroom.New(ctx, headroom.WithSource(inj.Source(src)))
	if err != nil {
		t.Fatal(err)
	}
	// Pools are dealt by weight: find the shard pool 1 landed in.
	faulted := 0
	if headroom.PoolNames(src.Shards(2)[1])[0] == cfg.Pools[1].Name {
		faulted = 1
	}

	// The other shard is untouched.
	if _, n, err := s.AggregateShard(ctx, 1-faulted, 2); err != nil || n == 0 {
		t.Fatalf("healthy shard: n=%d err=%v", n, err)
	}
	// Pool 1's shard panics: the panic must surface as a shard error.
	_, _, err = s.AggregateShard(ctx, faulted, 2)
	if err == nil {
		t.Fatal("panicking shard returned nil error")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d panicked", faulted)) || !strings.Contains(err.Error(), "injected crash") {
		t.Errorf("error = %q, want the shard's panic message", err)
	}
}
