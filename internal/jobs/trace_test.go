package jobs

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"headroom/internal/obs"
)

// submitTraced submits fn under a fresh tracer and returns the job and the
// tracer once the job is terminal.
func submitTraced(t *testing.T, q *Queue, fn Func) (*Job, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer(4)
	ctx := obs.WithTracer(context.Background(), tracer)
	ctx, root := obs.StartSpan(ctx, "test.request")
	j, err := q.SubmitCtx(ctx, "plan", fn)
	if err != nil {
		t.Fatalf("SubmitCtx: %v", err)
	}
	wctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j.Wait(wctx)
	root.End()
	return j, tracer
}

func TestSubmitCtxLinksTrace(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	var jobTraceID, jobID string
	j, tracer := submitTraced(t, q, func(ctx context.Context) (any, error) {
		jobTraceID = obs.TraceIDFrom(ctx)
		jobID = obs.JobIDFrom(ctx)
		return 42, nil
	})

	if j.TraceID() == "" {
		t.Fatal("job should carry the submitting trace")
	}
	if jobTraceID != j.TraceID() {
		t.Fatalf("job fn saw trace %q, job records %q", jobTraceID, j.TraceID())
	}
	if jobID != j.ID {
		t.Fatalf("job fn saw job_id %q, want %q", jobID, j.ID)
	}
	if snap := j.Snapshot(); snap.TraceID != j.TraceID() {
		t.Fatalf("snapshot trace %q != job trace %q", snap.TraceID, j.TraceID())
	}

	td, ok := tracer.Trace(j.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	byName := map[string]obs.SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	// A job runs once, directly under its jobs.job span: there is no span
	// per attempt.
	got := names(td.Spans)
	slices.Sort(got)
	if !slices.Equal(got, []string{"jobs.job", "jobs.queued", "test.request"}) {
		t.Errorf("trace spans = %v, want [jobs.job jobs.queued test.request]", got)
	}
	// The job span nests under the request; the queue-wait event under the
	// job span.
	if byName["jobs.job"].ParentID != byName["test.request"].SpanID {
		t.Error("jobs.job should be a child of the request span")
	}
	if byName["jobs.queued"].ParentID != byName["jobs.job"].SpanID {
		t.Error("jobs.queued should be a child of the job span")
	}
	attrs := byName["jobs.job"].Attrs.Map()
	if attrs["state"] != "done" {
		t.Errorf("job span state attr = %v", attrs["state"])
	}
	if attrs["queue_wait_ns"] == nil || attrs["run_ns"] == nil {
		t.Errorf("job span missing wait/run split: %v", attrs)
	}
}

func TestSubmitCtxDetachedFromCallerCancellation(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())

	tracer := obs.NewTracer(4)
	ctx := obs.WithTracer(context.Background(), tracer)
	ctx, root := obs.StartSpan(ctx, "req")
	cctx, cancel := context.WithCancel(ctx)

	started := make(chan struct{})
	j, err := q.SubmitCtx(cctx, "plan", func(jctx context.Context) (any, error) {
		close(started)
		select {
		case <-jctx.Done():
			return nil, jctx.Err()
		case <-time.After(100 * time.Millisecond):
			return obs.TraceIDFrom(jctx), nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel() // caller walks away; the job must keep running
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("job failed after caller cancellation: %v", err)
	}
	if res != root.TraceID() {
		t.Fatalf("job lost trace linkage after cancel: %v != %s", res, root.TraceID())
	}
	root.End()
}

func TestSubmitWithoutContextIsUntraced(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())
	j, err := q.SubmitCtx(context.Background(), "plan", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	j.Wait(context.Background())
	if j.TraceID() != "" {
		t.Fatalf("untraced submit has trace %q", j.TraceID())
	}
	if snap := j.Snapshot(); snap.TraceID != "" {
		t.Fatalf("snapshot trace = %q", snap.TraceID)
	}
}

func TestFailedJobSpanRecordsError(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close(context.Background())
	boom := errors.New("boom")
	j, tracer := submitTraced(t, q, func(ctx context.Context) (any, error) { return nil, boom })
	td, _ := tracer.Trace(j.TraceID())
	var jobSpan obs.SpanData
	for _, sd := range td.Spans {
		if sd.Name == "jobs.job" {
			jobSpan = sd
		}
	}
	attrs := jobSpan.Attrs.Map()
	if attrs["state"] != "failed" {
		t.Errorf("state attr = %v", attrs["state"])
	}
	if attrs["error"] != "boom" {
		t.Errorf("error attr = %v", attrs["error"])
	}
}

// TestJobSpanEndsBeforeWaitersAreReleased pins the order of a job's end:
// its jobs.job span is recorded before the terminal OnStateChange callback
// runs and before Wait returns, so a request waiting on the job can never
// end its own span first.
func TestJobSpanEndsBeforeWaitersAreReleased(t *testing.T) {
	tracer := obs.NewTracer(4)
	jobSpan := func(traceID string) (obs.SpanData, bool) {
		td, _ := tracer.Trace(traceID)
		for _, sd := range td.Spans {
			if sd.Name == "jobs.job" {
				return sd, true
			}
		}
		return obs.SpanData{}, false
	}
	atDone := make(chan bool, 1)
	q := New(Config{Workers: 1, OnStateChange: func(s Snapshot) {
		if s.State == Done {
			_, ok := jobSpan(s.TraceID)
			atDone <- ok
		}
	}})
	defer q.Close(context.Background())

	ctx, root := obs.StartSpan(obs.WithTracer(context.Background(), tracer), "test.request")
	defer root.End()
	j, err := q.SubmitCtx(ctx, "plan", func(context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sd, ok := jobSpan(j.TraceID())
	if !ok {
		t.Fatal("Wait returned before the jobs.job span ended")
	}
	if attrs := sd.Attrs.Map(); attrs["state"] != "done" || attrs["run_ns"] == nil || attrs["attempts"] != nil {
		t.Errorf("jobs.job attrs = %v", attrs)
	}
	if !<-atDone {
		t.Error("the Done callback ran before the jobs.job span ended")
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}
