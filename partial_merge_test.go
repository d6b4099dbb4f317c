package headroom

// Ordering edge cases of mergeShards, the one merge step every fan-out —
// local goroutines or the dist coordinator's dispatches — ends in, so
// distributed degradation rests on exactly this: failed shards must be
// reported in shard order with their pool attribution regardless of how
// failures interleave with survivors, and the survivors must merge in shard
// order (what keeps degraded distributed results byte-identical to degraded
// local results).

import (
	"context"
	"errors"
	"testing"

	"headroom/internal/metrics"
)

// namedShard is a no-op Source carrying pool names, standing in for one
// shard of a fan-out.
type namedShard struct{ pools []string }

func (n namedShard) Stream(context.Context, func([]Record) error) error { return nil }
func (n namedShard) PoolNames() []string                                { return n.pools }

// poolAgg builds an aggregator holding one record of the named pool, so
// merged aggregators are distinguishable by their pool keys.
func poolAgg(pool string) *Aggregator {
	a := metrics.NewAggregator()
	a.Add(Record{Tick: 0, DC: "dc1", Pool: pool, Server: "s1", Online: true, RPS: 1})
	return a
}

func mergeFixture(n int) ([]Source, []*Aggregator) {
	subs := make([]Source, n)
	aggs := make([]*Aggregator, n)
	names := []string{"A", "B", "C", "D", "E", "F"}
	for i := 0; i < n; i++ {
		subs[i] = namedShard{pools: []string{names[i]}}
		aggs[i] = poolAgg(names[i])
	}
	return subs, aggs
}

func TestMergePartialAllShardsFailed(t *testing.T) {
	subs, _ := mergeFixture(3)
	errs := []error{errors.New("e0"), errors.New("e1"), errors.New("e2")}
	// A failed shard's aggregator slot is nil in the real fan-out.
	out, err := mergeShards(context.Background(), true, subs, []*Aggregator{nil, nil, nil}, errs, mergeAggregates)
	if out != nil {
		t.Errorf("all-failed merge returned an aggregator with pools %v", out.Pools())
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if pe.Shards != 3 || len(pe.Failed) != 3 {
		t.Fatalf("PartialError = %d failed of %d shards, want 3 of 3", len(pe.Failed), pe.Shards)
	}
	for i, f := range pe.Failed {
		if f.Shard != i {
			t.Errorf("Failed[%d].Shard = %d, want shard order preserved", i, f.Shard)
		}
		if f.Err != errs[i] {
			t.Errorf("Failed[%d] carries %v, want %v", i, f.Err, errs[i])
		}
	}
	if got := pe.FailedPools(); len(got) != 3 || got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Errorf("FailedPools = %v, want [A B C]", got)
	}
}

func TestMergePartialSingleSurvivor(t *testing.T) {
	subs, aggs := mergeFixture(3)
	errs := []error{errors.New("e0"), nil, errors.New("e2")}
	aggs[0], aggs[2] = nil, nil
	out, err := mergeShards(context.Background(), true, subs, aggs, errs, mergeAggregates)
	if out != aggs[1] {
		t.Errorf("survivor merge did not return the sole surviving aggregator")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if len(pe.Failed) != 2 || pe.Failed[0].Shard != 0 || pe.Failed[1].Shard != 2 {
		t.Errorf("Failed = %+v, want shards [0 2] in order", pe.Failed)
	}
	if got := pe.FailedPools(); len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Errorf("FailedPools = %v, want [A C]", got)
	}
}

func TestMergePartialInterleavedFailures(t *testing.T) {
	subs, aggs := mergeFixture(6)
	errs := make([]error, 6)
	for _, i := range []int{0, 2, 4} {
		errs[i] = errors.New("boom")
		aggs[i] = nil
	}
	first := aggs[1] // first survivor anchors the merge
	out, err := mergeShards(context.Background(), true, subs, aggs, errs, mergeAggregates)
	if out != first {
		t.Errorf("merge did not anchor on the first surviving shard")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	wantFailed := []int{0, 2, 4}
	if len(pe.Failed) != len(wantFailed) {
		t.Fatalf("failed shards = %d, want %d", len(pe.Failed), len(wantFailed))
	}
	for i, f := range pe.Failed {
		if f.Shard != wantFailed[i] {
			t.Errorf("Failed[%d].Shard = %d, want %d (shard order)", i, f.Shard, wantFailed[i])
		}
	}
	// Survivors B, D, F merged in shard order into the output.
	pools := map[string]bool{}
	for _, k := range out.Pools() {
		pools[k.Pool] = true
	}
	for _, p := range []string{"B", "D", "F"} {
		if !pools[p] {
			t.Errorf("merged output missing surviving pool %s (have %v)", p, out.Pools())
		}
	}
	for _, p := range []string{"A", "C", "E"} {
		if pools[p] {
			t.Errorf("merged output contains failed pool %s", p)
		}
	}
}

func TestMergePartialNoFailures(t *testing.T) {
	subs, aggs := mergeFixture(2)
	out, err := mergeShards(context.Background(), true, subs, aggs, make([]error, 2), mergeAggregates)
	if err != nil {
		t.Fatalf("err = %v, want nil when every shard survived", err)
	}
	if len(out.Pools()) != 2 {
		t.Errorf("merged pools = %v, want both shards merged", out.Pools())
	}
}

func TestMergePartialCancelledContext(t *testing.T) {
	subs, aggs := mergeFixture(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// In both modes, with or without shard failures: a cancelled caller never
	// gets a merge, least of all a degraded one blaming healthy pools.
	for _, partial := range []bool{true, false} {
		for _, errs := range [][]error{{nil, nil}, {nil, context.Canceled}} {
			if out, err := mergeShards(ctx, partial, subs, aggs, errs, mergeAggregates); out != nil || !errors.Is(err, context.Canceled) || isPartialErr(err) {
				t.Errorf("partial=%v errs=%v: merge = (%v, %v), want bare context.Canceled", partial, errs, out, err)
			}
		}
	}
}
