package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"headroom/internal/retry"
)

func TestSubmitRunsJob(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Close(context.Background())

	j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got != 42 {
		t.Errorf("result = %v, want 42", got)
	}
	if s := j.Snapshot().State; s != Done {
		t.Errorf("state = %s, want done", s)
	}
}

func TestGetByID(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, ok := q.Get(j.ID)
	if !ok || got != j {
		t.Fatalf("Get(%s) = %v, %v; want the submitted job", j.ID, got, ok)
	}
	if _, ok := q.Get("j-999999"); ok {
		t.Error("Get of unknown ID succeeded")
	}
}

func TestPermanentFailureDoesNotRetry(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	var calls atomic.Int32
	boom := errors.New("boom")
	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	})
	_, err := j.Wait(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("calls = %d, want 1 (permanent errors must not retry)", n)
	}
	if s := j.Snapshot().State; s != Failed {
		t.Errorf("state = %s, want failed", s)
	}
}

// TestTransientFailureRetriesWithBackoff: the queue does not retry, so a
// job whose first call fails transiently fails at once with the transient
// mark kept (the server answers 503 with Retry-After). The retry, and its
// backoff, is the client's: a resubmission runs the function again.
func TestTransientFailureRetriesWithBackoff(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	var calls atomic.Int32
	fn := func(ctx context.Context) (any, error) {
		if calls.Add(1) < 2 {
			return nil, retry.Transient(errors.New("flaky"))
		}
		return "recovered", nil
	}
	j, _ := q.SubmitCtx(context.Background(), "test", fn)
	if _, err := j.Wait(context.Background()); !retry.IsTransient(err) {
		t.Fatalf("first job: err = %v, want transient", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("calls after the first job = %d, want 1: the queue does not retry", n)
	}
	if s := j.Snapshot().State; s != Failed {
		t.Errorf("first job state = %s, want failed", s)
	}

	j2, _ := q.SubmitCtx(context.Background(), "test", fn)
	got, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("resubmitted job: %v", err)
	}
	if got != "recovered" {
		t.Errorf("result = %v", got)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("calls = %d, want 2: one per submission", n)
	}
}

// TestTransientFailureExhaustsAttempts: a job has one attempt. A transient
// failure fails it like any other, and its error keeps the transient mark,
// so the server can answer 503 for the client to resubmit.
func TestTransientFailureExhaustsAttempts(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	var calls atomic.Int32
	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, retry.Transient(errors.New("always flaky"))
	})
	_, err := j.Wait(context.Background())
	if !retry.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("calls = %d, want 1: the queue does not retry", n)
	}
	if s := j.Snapshot().State; s != Failed {
		t.Errorf("state = %s, want failed", s)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	q := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		close(block)
		q.Close(context.Background())
	}()

	// Occupy the single worker, then fill the depth-1 queue.
	started := make(chan struct{})
	q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	if _, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return nil, nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if j != nil {
		t.Error("rejected submit returned a job")
	}
}

func TestJobTimeout(t *testing.T) {
	q := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	defer q.Close(context.Background())

	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, err := j.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	q := New(Config{Workers: 2})
	var done atomic.Int32
	var js []*Job
	for i := 0; i < 6; i++ {
		j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		js = append(js, j)
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := done.Load(); n != 6 {
		t.Errorf("completed = %d, want 6 (Close must drain)", n)
	}
	for _, j := range js {
		if s := j.Snapshot().State; s != Done {
			t.Errorf("job %s state = %s after drain", j.ID, s)
		}
	}
	if _, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestCloseDeadlineCancelsRunningJobs(t *testing.T) {
	q := New(Config{Workers: 1})
	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		<-ctx.Done() // runs until the drain deadline kills it
		return nil, ctx.Err()
	})
	// Wait until the job is actually running so Close observes it in flight.
	for j.Snapshot().State != Running {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Error("killed job reported success")
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		panic("kaboom")
	})
	_, err := j.Wait(context.Background())
	if err == nil || j.Snapshot().State != Failed {
		t.Fatalf("err = %v, state = %s; want failure", err, j.Snapshot().State)
	}
	// The worker must survive the panic.
	j2, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return "alive", nil })
	if got, err := j2.Wait(context.Background()); err != nil || got != "alive" {
		t.Fatalf("worker died after panic: %v, %v", got, err)
	}
}

// TestOnStateChangeCallback: the callback sees a job once, terminal.
func TestOnStateChangeCallback(t *testing.T) {
	var mu sync.Mutex
	var states []State
	q := New(Config{Workers: 1, OnStateChange: func(s Snapshot) {
		mu.Lock()
		states = append(states, s.State)
		mu.Unlock()
	}})

	j, _ := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) { return nil, nil })
	j.Wait(context.Background())
	// Close returns once the worker has exited, so after its callback.
	q.Close(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if len(states) != 1 || states[0] != Done {
		t.Errorf("transitions = %v, want [done]", states)
	}
}

// TestRetainsRecentTerminalJobs pins the table's bound: once Retained+k jobs
// have finished, the first k are gone and the last Retained are still
// addressable — and a job that was pending, then running, while all of them
// finished is never evicted.
func TestRetainsRecentTerminalJobs(t *testing.T) {
	const extra = 3
	q := New(Config{Workers: 1, QueueDepth: Retained + extra + 1})
	defer q.Close(context.Background())

	ids := make([]string, Retained+extra)
	for i := range ids {
		j, err := q.SubmitCtx(context.Background(), "test", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = j.ID
	}
	started, release := make(chan struct{}), make(chan struct{})
	last, err := q.SubmitCtx(context.Background(), "test", func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, ok := q.Get(last.ID); !ok {
		t.Fatal("pending job not addressable")
	}
	// The one worker starts the last job only after it has retired every
	// job before it.
	<-started
	for i, id := range ids {
		if _, ok := q.Get(id); ok != (i >= extra) {
			t.Errorf("finished job %d of %d: addressable = %v, want %v", i, len(ids), ok, i >= extra)
		}
	}
	if _, ok := q.Get(last.ID); !ok {
		t.Error("running job evicted")
	}
	close(release)
	last.Wait(context.Background())
}

// TestGetRacesEviction reads the table while finishing jobs evict from it;
// the race detector is the judge.
func TestGetRacesEviction(t *testing.T) {
	q := New(Config{Workers: 4, QueueDepth: Retained + 500})
	defer q.Close(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
					q.Get(fmt.Sprintf("j-%06d", n%(Retained+600)))
				}
			}
		}()
	}
	for i := 0; i < Retained+500; i++ {
		j, err := q.SubmitCtx(context.Background(), "test", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if i%8 == 0 {
			j.Wait(context.Background())
			if _, ok := q.Get(j.ID); !ok {
				t.Fatalf("job %s gone right after finishing", j.ID)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentSubmitAndGet(t *testing.T) {
	q := New(Config{Workers: 4, QueueDepth: 256})
	defer q.Close(context.Background())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
					return fmt.Sprintf("r%d", i), nil
				})
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if _, ok := q.Get(j.ID); !ok {
					t.Errorf("job %s invisible right after Submit", j.ID)
					return
				}
				j.Wait(context.Background())
			}
		}(i)
	}
	wg.Wait()
}

func TestAnnotateAttachesMetadata(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())
	j, err := q.SubmitCtx(context.Background(), "test", func(ctx context.Context) (any, error) {
		if !Annotate(ctx, "placement", []string{"http://w1", "http://w2"}) {
			return nil, errors.New("Annotate did not find the job in ctx")
		}
		Annotate(ctx, "node", "coord-1")
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshot()
	if snap.Meta["node"] != "coord-1" {
		t.Errorf("meta node = %v, want coord-1", snap.Meta["node"])
	}
	placement, ok := snap.Meta["placement"].([]string)
	if !ok || len(placement) != 2 {
		t.Errorf("meta placement = %v, want two workers", snap.Meta["placement"])
	}
	// Snapshots are copies: mutating one must not affect the job.
	snap.Meta["node"] = "tampered"
	if j.Snapshot().Meta["node"] != "coord-1" {
		t.Error("snapshot meta aliases the job's map")
	}
}

func TestAnnotateOutsideJobIsNoop(t *testing.T) {
	if Annotate(context.Background(), "k", "v") {
		t.Error("Annotate succeeded outside a job context")
	}
}

// TestSubmitRacesClose: submissions racing Close get a job or ErrClosed /
// ErrQueueFull — never a send on the closed pending channel — and a refused
// submission leaves no orphan in the job table.
func TestSubmitRacesClose(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		q := New(Config{Workers: 1, QueueDepth: 2})
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for { // until the queue closes under this submitter
					j, err := q.SubmitCtx(context.Background(), "t", func(context.Context) (any, error) { return nil, nil })
					switch {
					case err == nil:
						accepted.Add(1)
						if _, ok := q.Get(j.ID); !ok {
							t.Errorf("accepted job %s is not in the table", j.ID)
						}
					case errors.Is(err, ErrClosed):
						return
					case !errors.Is(err, ErrQueueFull):
						t.Errorf("Submit = %v, want a job, ErrClosed or ErrQueueFull", err)
						return
					}
				}
			}()
		}
		for accepted.Load() == 0 {
			runtime.Gosched()
		}
		if err := q.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		// Close drained the queue, so whatever is in the table was accepted
		// and ran; a pending entry is the orphan of a refused submission.
		q.mu.Lock()
		for id, j := range q.jobs {
			if st := j.Snapshot().State; st != Done && st != Failed {
				t.Errorf("job %s left %s after Close", id, j.Snapshot().State)
			}
		}
		if n := int64(len(q.jobs)); n != accepted.Load() {
			t.Errorf("table holds %d jobs, %d were accepted", n, accepted.Load())
		}
		q.mu.Unlock()
	}
}
