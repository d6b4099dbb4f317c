package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"headroom/internal/retry"
)

func TestJitterSeededDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		q := New(Config{Workers: 1, Seed: seed})
		defer q.Close(context.Background())
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = q.jitter(100 * time.Millisecond)
		}
		return out
	}
	a, b := seq(5), seq(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := seq(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter sequences")
	}
}

func TestJitterStaysInHalfToFullRange(t *testing.T) {
	q := New(Config{Workers: 1, Seed: 3})
	defer q.Close(context.Background())
	backoff := 80 * time.Millisecond
	for i := 0; i < 200; i++ {
		got := q.jitter(backoff)
		if got < backoff/2 || got > backoff {
			t.Fatalf("jitter(%s) = %s, want within [%s, %s]", backoff, got, backoff/2, backoff)
		}
	}
}

func TestRetryAbandonedWhenBackoffExceedsDeadline(t *testing.T) {
	// The first retry's backoff cannot complete before the job deadline:
	// rather than burn a worker sleeping toward certain failure, the queue
	// must give up immediately with the last real error.
	q := New(Config{Workers: 1, Timeout: 50 * time.Millisecond, Backoff: 10 * time.Second, MaxAttempts: 3})
	defer q.Close(context.Background())

	cause := errors.New("flaky dependency")
	j, err := q.SubmitCtx(context.Background(), "t", func(ctx context.Context) (any, error) {
		return nil, retry.Transient(cause)
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, werr := j.Wait(context.Background())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("job took %s: the doomed backoff was slept instead of abandoned", elapsed)
	}
	if werr == nil || !strings.Contains(werr.Error(), "retry abandoned") {
		t.Fatalf("err = %v, want retry-abandoned failure", werr)
	}
	if !errors.Is(werr, cause) {
		t.Fatalf("err = %v, want the last real error wrapped", werr)
	}
	if snap := j.Snapshot(); snap.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (abandoned before the second)", snap.Attempts)
	}
}

func TestRetrySucceedsWithinDeadline(t *testing.T) {
	// Sanity check against over-eager abandonment: a short backoff well
	// inside the deadline must still retry and succeed.
	q := New(Config{Workers: 1, Timeout: 5 * time.Second, Backoff: time.Millisecond, MaxAttempts: 3})
	defer q.Close(context.Background())
	calls := 0
	j, err := q.SubmitCtx(context.Background(), "t", func(ctx context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, retry.Transient(errors.New("blip"))
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, werr := j.Wait(context.Background())
	if werr != nil || v != "ok" {
		t.Fatalf("job = (%v, %v), want (ok, nil)", v, werr)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}
