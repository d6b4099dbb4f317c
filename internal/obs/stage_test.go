package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"headroom/internal/obs/prom"
)

// observed returns the count and sum of the one histogram family "stage_s"
// in reg, read back from its exposition.
func observed(t *testing.T, reg *prom.Registry) (count int, sum float64) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(buf.String(), "\n") {
		fmt.Sscanf(ln, "stage_s_count %d", &count)
		fmt.Sscanf(ln, "stage_s_sum %g", &sum)
	}
	return count, sum
}

func TestStageEndTraced(t *testing.T) {
	tracer := NewTracer(2)
	reg := prom.NewRegistry()
	h := reg.Histogram("stage_s", "test", nil, prom.StageBuckets)
	ctx, root := StartSpan(WithTracer(context.Background(), tracer), "root")

	sctx, st := StartStage(ctx, "work", h, Int("shard", 3))
	if ActiveSpan(sctx) != st.Span() || !st.Span().Enabled() {
		t.Fatal("StartStage must install its span on the returned context")
	}
	time.Sleep(time.Millisecond)
	d := st.End(errors.New("boom"), Int64("records", 7))
	root.End()

	td, _ := tracer.Trace(root.TraceID())
	var work []SpanData
	for _, sd := range td.Spans {
		if sd.Name == "work" {
			work = append(work, sd)
		}
	}
	if len(work) != 1 {
		t.Fatalf("stage recorded %d spans, want 1", len(work))
	}
	if work[0].Duration != d || d < time.Millisecond {
		t.Errorf("span duration %v, End returned %v: want the same reading", work[0].Duration, d)
	}
	if work[0].ParentID != root.SpanID() {
		t.Error("stage span is not a child of the active span")
	}
	attrs := work[0].Attrs.Map()
	if attrs["shard"] != int64(3) || attrs["records"] != int64(7) || attrs["error"] != "boom" {
		t.Errorf("attrs = %v, want shard, records and error", attrs)
	}
	if count, sum := observed(t, reg); count != 1 || sum != d.Seconds() {
		t.Errorf("series saw %d observations summing %v, want one of %v", count, sum, d.Seconds())
	}
}

func TestStageEndUntraced(t *testing.T) {
	reg := prom.NewRegistry()
	h := reg.Histogram("stage_s", "test", nil, prom.StageBuckets)
	ctx := context.Background()

	sctx, st := StartStage(ctx, "work", h)
	if sctx != ctx || st.Span().Enabled() {
		t.Fatal("an untraced stage must not open a span")
	}
	d := st.End(nil)
	if count, sum := observed(t, reg); count != 1 || sum != d.Seconds() {
		t.Errorf("series saw %d observations summing %v, want one of %v", count, sum, d.Seconds())
	}
	if d := StartTimer(h).End(errors.New("ignored: no span")); d < 0 {
		t.Errorf("timer duration %v", d)
	}
	if count, _ := observed(t, reg); count != 2 {
		t.Errorf("timer did not observe: count = %d", count)
	}
	// Span only: a nil series is skipped.
	_, st = StartStage(ctx, "work", nil)
	st.End(nil)

	// The disabled path stays inside StartSpan's budget (the attrs slices).
	boom := errors.New("boom")
	allocs := testing.AllocsPerRun(100, func() {
		_, st := StartStage(ctx, "x", h, Str("pool", "B"), Int("shard", 1))
		st.End(boom, Int64("records", 1))
	})
	if allocs > 2 {
		t.Fatalf("disabled stage allocates %v times, StartSpan's budget is 2", allocs)
	}
}
