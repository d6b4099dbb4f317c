package faults_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"headroom"
	"headroom/internal/faults"
	"headroom/internal/jobs"
	"headroom/internal/leakcheck"
)

// traceOf builds a replayable record stream with one record per listed pool
// name, in order. Repeated names yield repeated records of that pool.
func traceOf(pools ...string) headroom.ShardedSource {
	recs := make([]headroom.Record, len(pools))
	for i, p := range pools {
		recs[i] = headroom.Record{Tick: i, DC: "DC 1", Pool: p, Server: "s0", Online: true, RPS: 1}
	}
	return headroom.NewReplaySource(recs)
}

// streamPools collects the pool names emitted by one stream attempt.
func streamPools(t *testing.T, src headroom.Source) ([]string, error) {
	t.Helper()
	var got []string
	err := src.Stream(context.Background(), headroom.EachRecord(func(r headroom.Record) error {
		got = append(got, r.Pool)
		return nil
	}))
	return got, err
}

func TestFaultTransientOffsetIsOneShot(t *testing.T) {
	inj := faults.New(1, faults.Rule{Kind: faults.Transient, At: []int{2}})
	src := inj.Source(traceOf("A", "B", "C", "D"))

	got, err := streamPools(t, src)
	if !headroom.IsTransient(err) {
		t.Fatalf("first attempt err = %v, want transient", err)
	}
	if len(got) != 2 {
		t.Fatalf("records before fault = %v, want 2", got)
	}
	// The (rule, offset) trigger is consumed: a retry of the same stream
	// passes the fault point and completes.
	got, err = streamPools(t, src)
	if err != nil {
		t.Fatalf("second attempt err = %v, want nil", err)
	}
	if len(got) != 4 {
		t.Fatalf("second attempt records = %v, want all 4", got)
	}
	if n := inj.Injected(); n != 1 {
		t.Errorf("Injected() = %d, want 1", n)
	}
}

func TestFaultPermanentOffsetFiresEveryAttempt(t *testing.T) {
	inj := faults.New(1, faults.Rule{Kind: faults.Permanent, At: []int{0}, Msg: "pool is gone"})
	src := inj.Source(traceOf("A", "B"))
	for attempt := 0; attempt < 3; attempt++ {
		got, err := streamPools(t, src)
		if err == nil || headroom.IsTransient(err) {
			t.Fatalf("attempt %d: err = %v, want permanent error", attempt, err)
		}
		if !strings.Contains(err.Error(), "pool is gone") {
			t.Fatalf("attempt %d: err = %v, want custom message", attempt, err)
		}
		if len(got) != 0 {
			t.Fatalf("attempt %d: records = %v, want none", attempt, got)
		}
	}
}

func TestFaultPoolFilterCountsMatchingRecordsOnly(t *testing.T) {
	// Offset 1 of pool B is the fourth record overall: the filter must
	// count per matching pool, not globally.
	inj := faults.New(1, faults.Rule{Kind: faults.Transient, Pools: []string{"B"}, At: []int{1}})
	src := inj.Source(traceOf("A", "B", "A", "B", "A"))
	got, err := streamPools(t, src)
	if !headroom.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	want := []string{"A", "B", "A"}
	if len(got) != len(want) {
		t.Fatalf("records = %v, want %v", got, want)
	}
}

func TestFaultProbabilityReplaysFromSeed(t *testing.T) {
	// Stalls do not abort the stream, so the per-record injection pattern is
	// observable end to end. Two fresh injectors with the same seed must
	// fire at exactly the same records.
	pattern := func(seed int64) []bool {
		inj := faults.New(seed, faults.Rule{Kind: faults.Stall, Prob: 0.3, StallFor: time.Microsecond})
		src := inj.Source(traceOf(make([]string, 64)...))
		var fires []bool
		last := int64(0)
		err := src.Stream(context.Background(), headroom.EachRecord(func(headroom.Record) error {
			n := inj.Injected()
			fires = append(fires, n > last)
			last = n
			return nil
		}))
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		return fires
	}
	a, b := pattern(42), pattern(42)
	var fired []int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
		if a[i] {
			fired = append(fired, i)
		}
	}
	// The ordinals seed 42 hit when sources streamed record by record: the
	// draw sequence is per record, whatever the run the records arrive in
	// (here all 64 in one).
	want := []int{1, 3, 4, 11, 13, 20, 22, 23, 25, 27, 29, 34, 38, 42, 43, 50, 51, 55, 57, 58, 59, 62}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("seed 42 fired before records %v, want %v", fired, want)
	}
}

// TestFaultInsideRunDeliversRecordsBefore: a transient fault whose offset
// falls in the middle of a simulator step cuts the step there. The consumer
// has seen exactly the fault-free stream's records before the offset, and
// the stream fails with the injected transient error.
func TestFaultInsideRunDeliversRecordsBefore(t *testing.T) {
	fleet := headroom.FleetConfig{
		DCs:   headroom.NineRegions(),
		Pools: []headroom.PoolConfig{headroom.PoolB()},
		Seed:  5,
	}
	collect := func(src headroom.Source) (recs []headroom.Record, runs []int, err error) {
		err = src.Stream(context.Background(), func(run []headroom.Record) error {
			recs = append(recs, run...)
			runs = append(runs, len(run))
			return nil
		})
		return recs, runs, err
	}
	want, steps, err := collect(headroom.NewSimSource(fleet, 1))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	// Offsets strictly inside the first step, inside a later one, and on a
	// step boundary.
	for _, at := range []int{steps[0] / 2, steps[0] + steps[1] + 1, steps[0] + steps[1] + steps[2]} {
		inj := faults.New(1, faults.Rule{Kind: faults.Transient, At: []int{at}})
		got, _, err := collect(inj.Source(headroom.NewSimSource(fleet, 1)))
		if !headroom.IsTransient(err) || inj.Injected() != 1 {
			t.Fatalf("offset %d: err = %v, injected = %d, want one transient fault", at, err, inj.Injected())
		}
		if !reflect.DeepEqual(got, want[:at]) {
			t.Fatalf("offset %d: delivered %d records, want the fault-free stream's first %d", at, len(got), at)
		}
	}
}

func TestFaultStallHonoursCancellation(t *testing.T) {
	inj := faults.New(1, faults.Rule{Kind: faults.Stall, At: []int{0}, StallFor: time.Minute})
	src := inj.Source(traceOf("A"))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := src.Stream(ctx, headroom.EachRecord(func(headroom.Record) error { return nil }))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall ignored cancellation, took %s", elapsed)
	}
}

func TestFaultPanicPropagates(t *testing.T) {
	inj := faults.New(1, faults.Rule{Kind: faults.Panic, At: []int{0}, Msg: "chaos panic"})
	src := inj.Source(traceOf("A"))
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic propagated")
		}
		if s, ok := v.(string); !ok || s != "chaos panic" {
			t.Fatalf("panic = %v, want custom message", v)
		}
	}()
	src.Stream(context.Background(), headroom.EachRecord(func(headroom.Record) error { return nil }))
}

func TestFaultShardsHaveIndependentOneShotScopes(t *testing.T) {
	// One offset rule, two shards: the trigger must fire once per shard,
	// not once globally, so each shard's retry story is self-contained.
	inj := faults.New(1, faults.Rule{Kind: faults.Transient, At: []int{0}})
	shards := inj.Source(traceOf("A", "B")).(headroom.ShardedSource).Shards(2)
	if len(shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(shards))
	}
	for i, sh := range shards {
		if _, err := streamPools(t, sh); !headroom.IsTransient(err) {
			t.Fatalf("shard %d first attempt err = %v, want transient", i, err)
		}
		if _, err := streamPools(t, sh); err != nil {
			t.Fatalf("shard %d retry err = %v, want nil", i, err)
		}
	}
	if n := inj.Injected(); n != 2 {
		t.Errorf("Injected() = %d, want one fault per shard", n)
	}
}

func TestFaultSourceForwardsPoolNames(t *testing.T) {
	inj := faults.New(1)
	src := inj.Source(traceOf("A", "B"))
	pn, ok := src.(headroom.PoolNamer)
	if !ok {
		t.Fatal("fault source does not forward PoolNamer")
	}
	names := pn.PoolNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("PoolNames = %v", names)
	}
}

// TestFaultPanicJobLeaksNoGoroutines drives a job whose source panics
// through a real queue: the worker must recover, fail the job, and keep
// serving.
func TestFaultPanicJobLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{Kind: faults.Panic, At: []int{0}, Msg: "boom"})
	src := inj.Source(traceOf("A"))
	q := jobs.New(jobs.Config{Workers: 2})
	defer q.Close(context.Background())

	j, err := q.SubmitCtx(context.Background(), "chaos", func(ctx context.Context) (any, error) {
		return nil, src.Stream(ctx, func([]headroom.Record) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("job err = %v, want recovered panic", err)
	}
	// The worker survived the panic: a follow-up job still runs.
	j2, err := q.SubmitCtx(context.Background(), "chaos", func(ctx context.Context) (any, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, err := j2.Wait(context.Background()); err != nil || v != 7 {
		t.Fatalf("follow-up job = (%v, %v), want (7, nil)", v, err)
	}
}
