// Package obs is the dependency-free observability core of the repository:
// spans (nanosecond pipeline tracing with a bounded in-memory ring of
// recent traces), structured logging (slog with trace/span/job correlation
// pulled from context), and stage metrics (process-wide Prometheus
// families on prom.Default).
//
// Spans ride the context. A root span starts when a Tracer is installed on
// the context (WithTracer) and StartSpan is called with no active span;
// child spans nest by calling StartSpan with the returned context. When no
// tracer is installed, StartSpan returns a shared no-op span and the
// context unchanged — the disabled path costs at most the variadic attr
// slice (≤ 2 allocations, see BenchmarkSpanDisabled).
//
//	ctx = obs.WithTracer(ctx, tracer)
//	ctx, sp := obs.StartSpan(ctx, "simulate.pool", obs.Str("pool", "B"))
//	defer sp.End()
//
// Completed traces are exportable as JSON (/debug/traces) or as Chrome
// trace_event JSON for chrome://tracing (WriteChrome, FileTrace).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// --- attributes ----------------------------------------------------------

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt64
	kindBool
)

// Attr is one key/value span annotation. Values are stored unboxed so
// building an Attr never allocates.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, kind: kindString, s: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: kindInt64, i: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: kindInt64, i: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.i = 1
	}
	return a
}

// Value returns the attribute's value as an any.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt64:
		return a.i
	case kindBool:
		return a.i != 0
	default:
		return a.s
	}
}

// AttrList renders a span's attributes as one JSON object, in order.
type AttrList []Attr

// MarshalJSON renders {"key": value, ...} preserving attribute order.
func (l AttrList) MarshalJSON() ([]byte, error) {
	if len(l) == 0 {
		return []byte("{}"), nil
	}
	buf := make([]byte, 0, 16*len(l))
	buf = append(buf, '{')
	for i, a := range l {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a.Value())
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// Map returns the attributes as a plain map (last writer wins on duplicate
// keys), for the Chrome exporter.
func (l AttrList) Map() map[string]any {
	if len(l) == 0 {
		return nil
	}
	m := make(map[string]any, len(l))
	for _, a := range l {
		m[a.Key] = a.Value()
	}
	return m
}

// --- IDs -----------------------------------------------------------------

// idBase randomizes trace IDs across process restarts so traces from
// different runs don't collide in downstream tooling.
var idBase = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:])
	}
	return uint64(time.Now().UnixNano())
}()

var idSeq atomic.Uint64

// NewID returns a 16-hex-digit process-unique identifier, used for trace
// IDs and request IDs.
func NewID() string {
	v := idBase ^ (idSeq.Add(1) * 0x9E3779B97F4A7C15)
	return fmt.Sprintf("%016x", v)
}

// --- spans and traces ----------------------------------------------------

// SpanData is one finished span of a trace.
type SpanData struct {
	SpanID   uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    AttrList      `json:"attrs,omitempty"`
}

// maxSpansPerTrace bounds a single trace's memory: a runaway loop of spans
// cannot grow a trace without bound. Further spans are counted but dropped.
const maxSpansPerTrace = 4096

// Trace accumulates the finished spans of one trace tree.
type Trace struct {
	id    string
	start time.Time

	seq atomic.Uint64 // span-ID allocator; 1 is the root

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

func (tr *Trace) record(sd SpanData) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, sd)
}

// TraceData is an exportable snapshot of one trace.
type TraceData struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	// Spans are the finished spans, in completion order. A span still open
	// when the snapshot is taken is absent.
	Spans []SpanData `json:"spans"`
	// Dropped counts spans discarded after the per-trace bound.
	Dropped int `json:"dropped_spans,omitempty"`
}

func (tr *Trace) snapshot() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := make([]SpanData, len(tr.spans))
	copy(spans, tr.spans)
	return TraceData{TraceID: tr.id, Start: tr.start, Spans: spans, Dropped: tr.dropped}
}

// Span is one timed operation of a trace. The zero Span (and nil) is a
// no-op: every method returns immediately, so instrumented code never
// checks whether tracing is enabled.
type Span struct {
	trace  *Trace
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// noopSpan is the shared disabled span returned when no tracer is
// installed.
var noopSpan = &Span{}

// Enabled reports whether the span records anything.
func (s *Span) Enabled() bool { return s != nil && s.trace != nil }

// TraceID returns the owning trace's ID, or "" for a disabled span.
func (s *Span) TraceID() string {
	if !s.Enabled() {
		return ""
	}
	return s.trace.id
}

// SpanID returns the span's ID within its trace (root is 1), or 0 for a
// disabled span.
func (s *Span) SpanID() uint64 {
	if !s.Enabled() {
		return 0
	}
	return s.id
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if !s.Enabled() || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// RecordError annotates the span with a non-nil error.
func (s *Span) RecordError(err error) {
	if err == nil {
		return
	}
	s.SetAttr(Str("error", err.Error()))
}

// End finishes the span and records it on its trace. End is idempotent.
func (s *Span) End() {
	if s.Enabled() {
		s.end(time.Since(s.start))
	}
}

// end finishes the span with a duration the caller measured (Stage.End takes
// one clock reading for the span and its series).
func (s *Span) end(d time.Duration) {
	if !s.Enabled() {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.trace.record(SpanData{
		SpanID: s.id, ParentID: s.parent, Name: s.name,
		Start: s.start, Duration: d, Attrs: attrs,
	})
}

// Event records an already-completed child span with explicit timing —
// used for intervals measured elsewhere, like a job's queue wait.
func (s *Span) Event(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if !s.Enabled() {
		return
	}
	s.trace.record(SpanData{
		SpanID: s.trace.seq.Add(1), ParentID: s.id, Name: name,
		Start: start, Duration: d, Attrs: attrs,
	})
}

// --- tracer --------------------------------------------------------------

// Tracer owns a bounded ring of recent traces. Starting a root span
// registers its trace in the ring immediately, so in-flight traces are
// visible to /debug/traces; once the ring is full the oldest trace is
// overwritten.
type Tracer struct {
	mu   sync.Mutex
	ring []*Trace
	head int
	n    int
}

// NewTracer builds a tracer retaining the last capacity traces (default
// 64 when capacity is not positive).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{ring: make([]*Trace, capacity)}
}

func (t *Tracer) newTrace() *Trace {
	tr := &Trace{id: NewID(), start: time.Now()}
	t.mu.Lock()
	t.ring[t.head] = tr
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	return tr
}

// Traces snapshots the retained traces, newest first.
func (t *Tracer) Traces() []TraceData {
	t.mu.Lock()
	trs := make([]*Trace, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.head - 1 - i + len(t.ring)) % len(t.ring)
		trs = append(trs, t.ring[idx])
	}
	t.mu.Unlock()
	out := make([]TraceData, len(trs))
	for i, tr := range trs {
		out[i] = tr.snapshot()
	}
	return out
}

// Trace returns the snapshot of one retained trace by ID.
func (t *Tracer) Trace(id string) (TraceData, bool) {
	t.mu.Lock()
	var found *Trace
	for i := 0; i < t.n; i++ {
		idx := (t.head - 1 - i + len(t.ring)) % len(t.ring)
		if t.ring[idx].id == id {
			found = t.ring[idx]
			break
		}
	}
	t.mu.Unlock()
	if found == nil {
		return TraceData{}, false
	}
	return found.snapshot(), true
}

// --- context plumbing ----------------------------------------------------

type tracerKey struct{}
type spanKey struct{}
type jobIDKey struct{}

// WithTracer installs a tracer on the context; StartSpan calls downstream
// of it record spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// ActiveSpan returns the context's current span. The result is never nil:
// with no active span a shared no-op span is returned, so callers annotate
// unconditionally.
func ActiveSpan(ctx context.Context) *Span {
	if s, ok := ctx.Value(spanKey{}).(*Span); ok {
		return s
	}
	return noopSpan
}

// TraceIDFrom returns the active span's trace ID, or "".
func TraceIDFrom(ctx context.Context) string {
	return ActiveSpan(ctx).TraceID()
}

// WithJobID tags the context with a job identifier; the context log handler
// emits it as job_id on every record.
func WithJobID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, jobIDKey{}, id)
}

// JobIDFrom returns the context's job ID, or "".
func JobIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// StartSpan starts a span named name. With an active span on the context
// the new span is its child; otherwise a new root span (and trace) starts
// on the context's tracer. With no tracer installed it returns ctx
// unchanged and a shared no-op span — this disabled path performs no
// locking and at most the attrs slice allocation.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *Trace
	var parentID uint64
	if parent != nil && parent.trace != nil {
		tr = parent.trace
		parentID = parent.id
	} else {
		t, _ := ctx.Value(tracerKey{}).(*Tracer)
		if t == nil {
			return ctx, noopSpan
		}
		tr = t.newTrace()
	}
	s := &Span{trace: tr, name: name, id: tr.seq.Add(1), parent: parentID, start: time.Now()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}
