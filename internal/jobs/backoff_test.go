package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"headroom/internal/retry"
)

func TestRetryAbandonedWhenBackoffExceedsDeadline(t *testing.T) {
	// The first retry's backoff cannot complete before the job deadline:
	// rather than burn a worker sleeping toward certain failure, the queue
	// must give up immediately with the last real error.
	q := New(Config{Workers: 1, Timeout: 10 * time.Millisecond})
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
	q := New(Config{Workers: 1, Timeout: 5 * time.Second})
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
