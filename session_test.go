package headroom_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"headroom"
	"headroom/internal/metrics"
)

// multiPoolFleet is a fleet with enough pools to exercise real sharding,
// plus availability churn and a mid-run action so every simulator code path
// contributes to the compared aggregates.
func multiPoolFleet(seed int64) headroom.FleetConfig {
	return headroom.FleetConfig{
		DCs:               headroom.NineRegions(),
		Pools:             []headroom.PoolConfig{headroom.PoolB(), headroom.PoolD()},
		WorkloadNoiseFrac: 0.03,
		Seed:              seed,
	}
}

// TestSessionShardedIdentical is the acceptance property of the sharded
// path: for the same seed, Simulate must produce byte-identical aggregates
// at any shard count, including with scheduled actions.
func TestSessionShardedIdentical(t *testing.T) {
	ctx := context.Background()
	action := headroom.Action{Pool: "B", DC: "DC 1", Tick: 120, SetServers: 200}

	aggAt := func(shards int) *headroom.Aggregator {
		t.Helper()
		s, err := headroom.New(ctx,
			headroom.WithFleet(multiPoolFleet(9)),
			headroom.WithShards(shards),
		)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := s.Simulate(ctx, 1, action)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	want := aggAt(1)
	for _, shards := range []int{2, 3, 8} {
		got := aggAt(shards)
		if !reflect.DeepEqual(got.Pools(), want.Pools()) {
			t.Fatalf("shards=%d: pool keys differ", shards)
		}
		for _, key := range want.Pools() {
			ws, err := want.PoolSeries(key.DC, key.Pool)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := got.PoolSeries(key.DC, key.Pool)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("shards=%d: %s pool series differs from sequential", shards, key)
			}
			wsum, err := want.ServerSummaries(key.DC, key.Pool)
			if err != nil {
				t.Fatal(err)
			}
			gsum, err := got.ServerSummaries(key.DC, key.Pool)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gsum, wsum) {
				t.Errorf("shards=%d: %s server summaries differ from sequential", shards, key)
			}
		}
	}
}

// TestSessionSimulateCancelled checks that cancelling the per-call context
// mid-simulation returns ctx.Err() promptly and leaks no goroutines, on
// both the sequential and the sharded path.
func TestSessionSimulateCancelled(t *testing.T) {
	for _, shards := range []int{1, 4} {
		before := runtime.NumGoroutine()
		s, err := headroom.New(context.Background(),
			headroom.WithFleet(multiPoolFleet(11)),
			headroom.WithShards(shards),
		)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		// 365 simulated days would run for minutes; cancellation must cut
		// it short almost immediately.
		_, err = s.Simulate(ctx, 365)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shards=%d: err = %v, want context.DeadlineExceeded", shards, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("shards=%d: cancellation took %v", shards, elapsed)
		}
		waitForGoroutines(t, before)
	}
}

// TestSessionBaseContextCancelsOperations checks the session-lifetime
// context from New: cancelling it aborts in-flight calls made with an
// otherwise-live per-call context.
func TestSessionBaseContextCancelsOperations(t *testing.T) {
	before := runtime.NumGoroutine()
	base, cancelBase := context.WithCancel(context.Background())
	s, err := headroom.New(base, headroom.WithFleet(multiPoolFleet(12)))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(30*time.Millisecond, cancelBase)
	start := time.Now()
	_, err = s.Simulate(context.Background(), 365)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("base cancellation took %v", elapsed)
	}
	waitForGoroutines(t, before)
}

// blockingPlant parks every observation until the context dies, proving
// RunRSM propagates cancellation into the plant.
type blockingPlant struct{}

func (blockingPlant) Observe(ctx context.Context, servers, ticks int) ([]metrics.TickStat, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestSessionRunRSMCancelled checks that a context cancelled mid-RunRSM
// unblocks the plant and surfaces ctx.Err().
func TestSessionRunRSMCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := headroom.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err = s.RunRSM(ctx, blockingPlant{}, headroom.RSMConfig{
		InitialServers: 100,
		QoSLimitMs:     10,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestSessionCustomSource checks the WithSource path: Simulate streams the
// configured source, and simulator-only parameters are rejected.
func TestSessionCustomSource(t *testing.T) {
	ctx := context.Background()

	// Build a small trace to replay.
	fleet := headroom.FleetConfig{
		DCs:   headroom.NineRegions(),
		Pools: []headroom.PoolConfig{headroom.PoolB()},
		Seed:  13,
	}
	sim, err := headroom.New(ctx, headroom.WithFleet(fleet))
	if err != nil {
		t.Fatal(err)
	}
	var recs []headroom.Record
	if err := sim.Stream(ctx, headroom.NewSimSource(fleet, 1), headroom.EachRecord(func(r headroom.Record) error {
		recs = append(recs, r)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	want, err := sim.Simulate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	replay, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(recs)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.Simulate(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range want.Pools() {
		ws, _ := want.PoolSeries(key.DC, key.Pool)
		gs, err := got.PoolSeries(key.DC, key.Pool)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%s: replayed aggregates differ from direct simulation", key)
		}
	}

	if _, err := replay.Simulate(ctx, 1); err == nil {
		t.Error("days > 0 with a custom source should error")
	}
	if _, err := replay.Simulate(ctx, 0, headroom.Action{Pool: "B", DC: "DC 1", SetServers: 1}); err == nil {
		t.Error("actions with a custom source should error")
	}

	empty, err := headroom.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Simulate(ctx, 1); err == nil {
		t.Error("session without fleet or source should error")
	}
	if _, err := empty.Aggregate(ctx, nil); err == nil {
		t.Error("Aggregate without a source should error")
	}
}

// TestSessionInvalidFleetShardedError checks that an invalid fleet smuggled
// past New via WithSource fails identically whether aggregation shards or
// not: splitting a config whose error spans pools (a duplicate name) must
// not yield individually-valid shards that double-count the pool.
func TestSessionInvalidFleetShardedError(t *testing.T) {
	ctx := context.Background()
	dup := headroom.FleetConfig{
		DCs:   headroom.NineRegions(),
		Pools: []headroom.PoolConfig{headroom.PoolB(), headroom.PoolB()},
		Seed:  1,
	}
	for _, shards := range []int{1, 4} {
		s, err := headroom.New(ctx,
			headroom.WithSource(headroom.NewSimSource(dup, 1)),
			headroom.WithShards(shards),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Aggregate(ctx, nil); err == nil {
			t.Errorf("shards=%d: duplicate-pool fleet aggregated without error", shards)
		}
	}
}

// TestSessionOptionValidation covers option errors surfaced by New.
func TestSessionOptionValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := headroom.New(ctx, headroom.WithShards(-1)); err == nil {
		t.Error("negative shard count should error")
	}
	if _, err := headroom.New(ctx, headroom.WithSource(nil)); err == nil {
		t.Error("nil source should error")
	}
	if _, err := headroom.New(ctx, headroom.WithFleet(headroom.FleetConfig{})); err == nil {
		t.Error("invalid fleet should error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := headroom.New(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("New on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestExperimentRegistry checks the experiment surface of the facade.
func TestExperimentRegistry(t *testing.T) {
	ctx := context.Background()
	infos := headroom.Experiments()
	if len(infos) == 0 {
		t.Fatal("no experiments registered")
	}
	s, err := headroom.New(ctx, headroom.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunExperiment(ctx, "no-such-artifact", true); err == nil {
		t.Error("unknown experiment ID should error")
	}
	res, err := s.RunExperiment(ctx, "ablation-degree", true)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if res.ID != "ablation-degree" {
		t.Errorf("result ID = %q", res.ID)
	}
}

// waitForGoroutines waits for the goroutine count to return to the level
// observed before the operation, failing the test if it does not settle.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
