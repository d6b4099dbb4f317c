package headroom_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"headroom"
)

// scriptedSource deterministically replays recs in runs of runLen records
// (0 = one record per run), failing each attempt according to failures:
// failures[attempt-1] = (#records to emit before failing, error to fail
// with); a failure point inside a run cuts the run there. Attempts beyond the
// script succeed.
type scriptedSource struct {
	recs     []headroom.Record
	failures []scriptedFailure
	runLen   int
	attempts int
}

type scriptedFailure struct {
	after int
	err   error
}

func (s *scriptedSource) Stream(ctx context.Context, emit func([]headroom.Record) error) error {
	attempt := s.attempts
	s.attempts++
	failAt := len(s.recs) + 1
	if attempt < len(s.failures) {
		failAt = s.failures[attempt].after
	}
	for i := 0; i < len(s.recs); {
		if i == failAt {
			return s.failures[attempt].err
		}
		end := min(i+max(s.runLen, 1), len(s.recs))
		if i < failAt && failAt < end {
			end = failAt
		}
		if err := emit(s.recs[i:end]); err != nil {
			return err
		}
		i = end
	}
	return nil
}

func nRecords(n int) []headroom.Record {
	recs := make([]headroom.Record, n)
	for i := range recs {
		recs[i] = headroom.Record{Tick: i, DC: "DC 1", Pool: "A", Server: "s0", Online: true, RPS: float64(i)}
	}
	return recs
}

// fastRetry keeps test retries in the microsecond range.
var fastRetry = headroom.RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond}

func TestResilientSourceRetriesTransientExactlyOnce(t *testing.T) {
	src := &scriptedSource{
		recs: nRecords(5),
		failures: []scriptedFailure{
			{after: 2, err: headroom.Transient(errors.New("blip 1"))},
			{after: 4, err: headroom.Transient(errors.New("blip 2"))},
		},
	}
	var retries []int
	policy := fastRetry
	policy.OnRetry = func(attempt int, err error) { retries = append(retries, attempt) }
	rs := headroom.ResilientSource(src, policy)

	var got []int
	err := rs.Stream(context.Background(), headroom.EachRecord(func(r headroom.Record) error {
		got = append(got, r.Tick)
		return nil
	}))
	if err != nil {
		t.Fatalf("Stream = %v, want nil after retries", err)
	}
	// Each record exactly once, in order, despite two mid-stream failures.
	if len(got) != 5 {
		t.Fatalf("records = %v, want 5 exactly-once records", got)
	}
	for i, tick := range got {
		if tick != i {
			t.Fatalf("records = %v, want in-order ticks 0..4", got)
		}
	}
	if src.attempts != 3 {
		t.Errorf("attempts = %d, want 3", src.attempts)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("OnRetry attempts = %v, want [1 2]", retries)
	}
}

func TestResilientSourceResumesInsideRun(t *testing.T) {
	// Runs of four; the first attempt dies two records into its first run,
	// the second three records into its second. Each retry re-emits whole
	// runs from the start, so the skip point falls inside a run both times.
	src := &scriptedSource{
		recs:   nRecords(10),
		runLen: 4,
		failures: []scriptedFailure{
			{after: 2, err: headroom.Transient(errors.New("blip 1"))},
			{after: 7, err: headroom.Transient(errors.New("blip 2"))},
		},
	}
	rs := headroom.ResilientSource(src, fastRetry)
	var got, runs []int
	err := rs.Stream(context.Background(), func(run []headroom.Record) error {
		runs = append(runs, len(run))
		for _, r := range run {
			got = append(got, r.Tick)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Stream = %v, want nil after retries", err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %v, want each exactly once in order", got)
	}
	// [0,2) | skip 2 of [0,4), [4,7) | skip [0,4) and 3 of [4,8), [8,10).
	if want := []int{2, 2, 3, 1, 2}; !reflect.DeepEqual(runs, want) {
		t.Errorf("delivered run lengths = %v, want %v (empty runs are not delivered)", runs, want)
	}
}

func TestResilientSourcePermanentNotRetried(t *testing.T) {
	boom := errors.New("disk on fire")
	src := &scriptedSource{recs: nRecords(3), failures: []scriptedFailure{{after: 1, err: boom}}}
	rs := headroom.ResilientSource(src, fastRetry)
	err := rs.Stream(context.Background(), func([]headroom.Record) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the permanent error", err)
	}
	if src.attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry of permanent errors)", src.attempts)
	}
}

func TestResilientSourceExhaustsAttempts(t *testing.T) {
	always := headroom.Transient(errors.New("still down"))
	src := &scriptedSource{recs: nRecords(2), failures: []scriptedFailure{
		{after: 0, err: always}, {after: 0, err: always}, {after: 0, err: always}, {after: 0, err: always},
	}}
	rs := headroom.ResilientSource(src, fastRetry)
	err := rs.Stream(context.Background(), func([]headroom.Record) error { return nil })
	if !headroom.IsTransient(err) {
		t.Fatalf("err = %v, want the transient error surfaced after exhaustion", err)
	}
	if src.attempts != 3 {
		t.Errorf("attempts = %d, want MaxAttempts=3", src.attempts)
	}
}

func TestResilientSourceConsumerErrorNotRetried(t *testing.T) {
	src := &scriptedSource{recs: nRecords(3)}
	rs := headroom.ResilientSource(src, fastRetry)
	sentinel := errors.New("consumer said stop")
	err := rs.Stream(context.Background(), headroom.EachRecord(func(r headroom.Record) error {
		if r.Tick == 1 {
			return sentinel
		}
		return nil
	}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the consumer error as-is", err)
	}
	if src.attempts != 1 {
		t.Errorf("attempts = %d, want 1 (consumer errors are not source failures)", src.attempts)
	}
}

type panicSource struct{}

func (panicSource) Stream(context.Context, func([]headroom.Record) error) error {
	panic("wild pointer")
}

func TestResilientSourcePanicBecomesPermanentError(t *testing.T) {
	rs := headroom.ResilientSource(panicSource{}, fastRetry)
	err := rs.Stream(context.Background(), func([]headroom.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic error", err)
	}
}

func TestResilientSourceCancellationWins(t *testing.T) {
	always := headroom.Transient(errors.New("down"))
	src := &scriptedSource{recs: nRecords(1), failures: []scriptedFailure{
		{after: 0, err: always}, {after: 0, err: always}, {after: 0, err: always},
	}}
	policy := fastRetry
	policy.Backoff = time.Hour // the retry sleep must yield to cancellation
	rs := headroom.ResilientSource(src, policy)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := rs.Stream(ctx, func([]headroom.Record) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry backoff ignored context cancellation")
	}
}

// TestResilientSourceAbandonsBackoffPastDeadline: a retry whose backoff
// cannot end before the context's deadline is not slept toward it. Stream
// gives up at once, with an error carrying both the deadline and the
// stream's last error.
func TestResilientSourceAbandonsBackoffPastDeadline(t *testing.T) {
	lastErr := headroom.Transient(errors.New("still down"))
	src := &scriptedSource{recs: nRecords(1), failures: []scriptedFailure{
		{after: 0, err: lastErr}, {after: 0, err: lastErr}, {after: 0, err: lastErr},
	}}
	policy := fastRetry
	policy.Backoff = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := headroom.ResilientSource(src, policy).Stream(ctx, func([]headroom.Record) error { return nil })
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Stream returned after %s: the backoff was slept toward the 200 ms deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, lastErr) {
		t.Fatalf("err = %v, want it to wrap both context.DeadlineExceeded and the last stream error", err)
	}
	if src.attempts != 1 {
		t.Errorf("attempts = %d, want 1 (abandoned before the second)", src.attempts)
	}
}

func TestResilientSourcePreservesShardingAndPoolNames(t *testing.T) {
	recs := []headroom.Record{
		{Tick: 0, DC: "DC 1", Pool: "A", Server: "s0", Online: true},
		{Tick: 0, DC: "DC 1", Pool: "B", Server: "s0", Online: true},
	}
	rs := headroom.ResilientSource(headroom.NewReplaySource(recs), fastRetry)
	sh, ok := rs.(headroom.ShardedSource)
	if !ok {
		t.Fatal("resilient wrapper lost ShardedSource")
	}
	shards := sh.Shards(2)
	if len(shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(shards))
	}
	pn, ok := rs.(headroom.PoolNamer)
	if !ok {
		t.Fatal("resilient wrapper lost PoolNamer")
	}
	if names := pn.PoolNames(); len(names) != 2 {
		t.Fatalf("PoolNames = %v, want both pools", names)
	}
}
