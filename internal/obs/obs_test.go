package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tracer := NewTracer(4)
	ctx := WithTracer(context.Background(), tracer)

	ctx, root := StartSpan(ctx, "root", Str("kind", "plan"))
	if !root.Enabled() {
		t.Fatal("root span should be enabled under a tracer")
	}
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild", Int("shard", 3))
	grand.End()
	child.End()
	root.SetAttr(Bool("degraded", false))
	root.End()

	td, ok := tracer.Trace(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not retained", root.TraceID())
	}
	if len(td.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if byName["root"].ParentID != 0 {
		t.Errorf("root should have no parent, got %d", byName["root"].ParentID)
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent = %d, want root id %d", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent = %d, want child id %d", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	if got := byName["grandchild"].Attrs.Map()["shard"]; got != int64(3) {
		t.Errorf("grandchild shard attr = %v, want 3", got)
	}
}

func TestSpanSiblingsShareTrace(t *testing.T) {
	tracer := NewTracer(4)
	ctx := WithTracer(context.Background(), tracer)
	ctx, root := StartSpan(ctx, "root")
	_, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx, "b")
	if a.TraceID() != root.TraceID() || b.TraceID() != root.TraceID() {
		t.Fatal("siblings must share the root's trace")
	}
	if a.SpanID() == b.SpanID() {
		t.Fatal("sibling span IDs must differ")
	}
	a.End()
	b.End()
	root.End()
}

func TestDisabledSpanIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "nothing", Str("k", "v"))
	if sp.Enabled() {
		t.Fatal("span without a tracer must be disabled")
	}
	if sp.TraceID() != "" || sp.SpanID() != 0 {
		t.Fatal("disabled span must have empty IDs")
	}
	// All methods must be safe no-ops.
	sp.SetAttr(Int("n", 1))
	sp.RecordError(errors.New("x"))
	sp.Event("e", time.Now(), time.Second)
	sp.End()
	sp.End()
	if got := ActiveSpan(ctx); got.Enabled() {
		t.Fatal("context must not carry an enabled span")
	}
	var nilSpan *Span
	if nilSpan.Enabled() {
		t.Fatal("nil span must be disabled")
	}
	nilSpan.End() // must not panic
}

func TestDisabledStartSpanAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "x", Str("pool", "B"), Int("shard", 1))
		sp.End()
	})
	if allocs > 2 {
		t.Fatalf("disabled StartSpan allocates %v times, budget is 2", allocs)
	}
}

func TestEndIdempotent(t *testing.T) {
	tracer := NewTracer(2)
	ctx := WithTracer(context.Background(), tracer)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	sp.End()
	sp.End()
	td, _ := tracer.Trace(sp.TraceID())
	if len(td.Spans) != 1 {
		t.Fatalf("idempotent End recorded %d spans, want 1", len(td.Spans))
	}
}

func TestEventRecordsCompletedChild(t *testing.T) {
	tracer := NewTracer(2)
	ctx := WithTracer(context.Background(), tracer)
	_, sp := StartSpan(ctx, "job")
	start := time.Now().Add(-50 * time.Millisecond)
	sp.Event("queued", start, 50*time.Millisecond, Int64("queue_wait_ns", 50e6))
	sp.End()
	td, _ := tracer.Trace(sp.TraceID())
	if len(td.Spans) != 2 {
		t.Fatalf("want 2 spans (event + job), got %d", len(td.Spans))
	}
	var ev SpanData
	for _, sd := range td.Spans {
		if sd.Name == "queued" {
			ev = sd
		}
	}
	if ev.ParentID != sp.SpanID() {
		t.Errorf("event parent = %d, want %d", ev.ParentID, sp.SpanID())
	}
	if ev.Duration != 50*time.Millisecond {
		t.Errorf("event duration = %s, want 50ms", ev.Duration)
	}
}

func TestTracerRingBound(t *testing.T) {
	tracer := NewTracer(3)
	ctx := WithTracer(context.Background(), tracer)
	var ids []string
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("t%d", i))
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	got := tracer.Traces()
	if len(got) != 3 {
		t.Fatalf("ring should retain 3 traces, got %d", len(got))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if got[i].TraceID != want {
			t.Errorf("traces[%d] = %s, want %s", i, got[i].TraceID, want)
		}
	}
	if _, ok := tracer.Trace(ids[0]); ok {
		t.Error("oldest trace should have been evicted")
	}
}

func TestMaxSpansPerTraceBound(t *testing.T) {
	tracer := NewTracer(1)
	ctx := WithTracer(context.Background(), tracer)
	ctx, root := StartSpan(ctx, "root")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := StartSpan(ctx, "leaf")
		sp.End()
	}
	root.End()
	td, _ := tracer.Trace(root.TraceID())
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want bound %d", len(td.Spans), maxSpansPerTrace)
	}
	if td.Dropped != 11 { // 10 extra leaves + the root
		t.Fatalf("dropped = %d, want 11", td.Dropped)
	}
}

func TestAttrListJSON(t *testing.T) {
	l := AttrList{Str("pool", "B"), Int("shard", 2), Bool("degraded", true)}
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"pool":"B","shard":2,"degraded":true}`
	if string(b) != want {
		t.Fatalf("AttrList JSON = %s, want %s", b, want)
	}
	var empty AttrList
	if b, _ := json.Marshal(empty); string(b) != "{}" {
		t.Fatalf("empty AttrList JSON = %s, want {}", b)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestWriteChrome(t *testing.T) {
	tracer := NewTracer(2)
	ctx := WithTracer(context.Background(), tracer)
	ctx, root := StartSpan(ctx, "session.aggregate", Int("shards", 2))
	_, child := StartSpan(ctx, "simulate.pool", Str("pool", "B"))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tracer.Traces()...); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  uint64         `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var sawMeta, sawPool, sawRoot bool
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			sawMeta = true
		case ev.Name == "simulate.pool":
			sawPool = true
			if ev.Ph != "X" {
				t.Errorf("span event ph = %q, want X", ev.Ph)
			}
			if ev.Args["pool"] != "B" {
				t.Errorf("pool arg = %v, want B", ev.Args["pool"])
			}
			if ev.Args["parent_span"] == nil {
				t.Error("child span should carry parent_span arg")
			}
		case ev.Name == "session.aggregate":
			sawRoot = true
		}
	}
	if !sawMeta || !sawPool || !sawRoot {
		t.Fatalf("missing events: meta=%v pool=%v root=%v", sawMeta, sawPool, sawRoot)
	}
}

func TestJobIDContext(t *testing.T) {
	ctx := WithJobID(context.Background(), "j-000001")
	if got := JobIDFrom(ctx); got != "j-000001" {
		t.Fatalf("JobIDFrom = %q", got)
	}
	if got := JobIDFrom(context.Background()); got != "" {
		t.Fatalf("JobIDFrom(empty) = %q, want empty", got)
	}
}

func TestContextLogger(t *testing.T) {
	tracer := NewTracer(2)
	ctx := WithTracer(context.Background(), tracer)
	ctx, sp := StartSpan(ctx, "op")
	ctx = WithJobID(ctx, "j-000042")

	var buf bytes.Buffer
	logger := NewLogger(&buf, "json", 0)
	logger.InfoContext(ctx, "hello", "k", "v")
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%s)", err, buf.String())
	}
	if rec["trace_id"] != sp.TraceID() {
		t.Errorf("trace_id = %v, want %s", rec["trace_id"], sp.TraceID())
	}
	if rec["job_id"] != "j-000042" {
		t.Errorf("job_id = %v", rec["job_id"])
	}
	if rec["span_id"] == nil {
		t.Error("span_id missing from log record")
	}
}

func TestTextLoggerOmitsIDsWithoutTrace(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "text", 0)
	logger.Info("plain")
	if s := buf.String(); strings.Contains(s, "trace_id") {
		t.Fatalf("untraced log line should not carry trace_id: %s", s)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR", "": "INFO",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %s, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
}

// BenchmarkSpanDisabled is the CI allocation/latency gate for instrumented
// hot paths running without a tracer.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "bench")
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tracer := NewTracer(8)
	ctx := WithTracer(context.Background(), tracer)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "bench", Str("pool", "B"))
		sp.End()
	}
}
