package prom

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The escapes are Go's own for backslash, quote and newline, so
// strconv.Unquote inverts them.
func TestEscapeLabelRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		"",
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all \ " ` + "\n" + ` of them`,
		`trailing\`,
	}
	for _, in := range cases {
		esc := EscapeLabel(in)
		if strings.ContainsAny(esc, "\n") {
			t.Errorf("EscapeLabel(%q) = %q still contains a raw newline", in, esc)
		}
		if got, err := strconv.Unquote(`"` + esc + `"`); err != nil || got != in {
			t.Errorf("round-trip %q -> %q -> %q (%v)", in, esc, got, err)
		}
	}
}

func TestEscapeLabelNoAllocFastPath(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { EscapeLabel("clean-value") }); n != 0 {
		t.Fatalf("EscapeLabel on a clean value allocates %v times", n)
	}
}

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "Test counter.", Labels{"kind": `a"b`})
	for range 42 {
		c.Inc()
	}
	out := render(t, r)
	if !strings.Contains(out, "# HELP test_total Test counter.\n# TYPE test_total counter\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, `test_total{kind="a\"b"} 42`) {
		t.Fatalf("missing escaped sample:\n%s", out)
	}
}

func TestHistogramConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", Labels{"stage": "plan"}, []float64{0.01, 0.1, 1})
	obs := []float64{0.005, 0.05, 0.5, 5, 50} // one per bucket + two above the last bound
	var sum float64
	for _, v := range obs {
		h.Observe(v)
		sum += v
	}
	out := render(t, r)

	// Cumulative buckets: le=0.01 -> 1, le=0.1 -> 2, le=1 -> 3, +Inf -> 5.
	for _, want := range []string{
		`lat_seconds_bucket{stage="plan",le="0.01"} 1`,
		`lat_seconds_bucket{stage="plan",le="0.1"} 2`,
		`lat_seconds_bucket{stage="plan",le="1"} 3`,
		`lat_seconds_bucket{stage="plan",le="+Inf"} 5`,
		fmt.Sprintf(`lat_seconds_sum{stage="plan"} %g`, sum),
		`lat_seconds_count{stage="plan"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// +Inf bucket must always equal _count: a parser cross-checks them.
	infLine := lineWith(out, `le="+Inf"`)
	countLine := lineWith(out, "lat_seconds_count")
	if !strings.HasSuffix(infLine, " 5") || !strings.HasSuffix(countLine, " 5") {
		t.Errorf("+Inf bucket and _count disagree: %q vs %q", infLine, countLine)
	}
}

func TestHistogramBoundaryObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "Boundary.", nil, []float64{1})
	h.Observe(1) // exactly the bound: le is inclusive
	out := render(t, r)
	if !strings.Contains(out, `b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("observation at the bound must land in its bucket:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "h", Labels{"a": "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label set must panic")
		}
	}()
	r.Counter("dup_total", "h", Labels{"a": "1"})
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mixed", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("mixed", "h", Labels{"x": "1"}, func() float64 { return 0 })
}

func TestLazySeries(t *testing.T) {
	r := NewRegistry()
	a := r.LazyHistogram("lazy_seconds", "h", Labels{"pool": "A"}, DefBuckets)
	a2 := r.LazyHistogram("lazy_seconds", "h", Labels{"pool": "A"}, DefBuckets)
	if a != a2 {
		t.Fatal("LazyHistogram must return the same series for the same labels")
	}
	b := r.LazyHistogram("lazy_seconds", "h", Labels{"pool": "B"}, DefBuckets)
	if a == b {
		t.Fatal("distinct labels must get distinct series")
	}
	a.Observe(1)
	b.Observe(1)
	b.Observe(2)
	out := render(t, r)
	if !strings.Contains(out, `lazy_seconds_count{pool="A"} 1`) || !strings.Contains(out, `lazy_seconds_count{pool="B"} 2`) {
		t.Fatalf("lazy series missing:\n%s", out)
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.5
	r.Gauge("depth", "h", nil, func() float64 { return v })
	r.CounterFunc("hits_total", "h", nil, func() float64 { return 7 })
	out := render(t, r)
	if !strings.Contains(out, "depth 3.5") || !strings.Contains(out, "hits_total 7") {
		t.Fatalf("sampled series missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE depth gauge") || !strings.Contains(out, "# TYPE hits_total counter") {
		t.Fatalf("types wrong:\n%s", out)
	}
}

func TestLabelsRenderSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("sorted_total", "h", Labels{"z": "1", "a": "2", "m": "3"})
	out := render(t, r)
	if !strings.Contains(out, `sorted_total{a="2",m="3",z="1"}`) {
		t.Fatalf("labels must render sorted by key:\n%s", out)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nline two \\ done", nil)
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total line one\nline two \\ done`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
}

func TestNaNRenderable(t *testing.T) {
	r := NewRegistry()
	r.Gauge("weird", "h", nil, func() float64 { return math.NaN() })
	out := render(t, r)
	if !strings.Contains(out, "weird NaN") {
		t.Fatalf("NaN gauge should render as NaN:\n%s", out)
	}
}

// TestConcurrentObserveWhileRender drives writers against scrapers under
// -race: Observe/Inc must never tear a render and lazy registration must be
// safe mid-scrape.
func TestConcurrentObserveWhileRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "h", Labels{"stage": "x"}, DefBuckets)
	c := r.Counter("c_total", "h", nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%100) / 100)
				c.Inc()
				r.LazyHistogram("c_lazy_seconds", "h", Labels{"w": fmt.Sprintf("%d", w)}, DefBuckets).Observe(1)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if _, err := r.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		runtime.Gosched() // let writers interleave even on one CPU
	}
	close(stop)
	wg.Wait()
	h.Observe(0.01) // guarantee at least one observation on any scheduler
	out := render(t, r)
	// Post-hoc consistency: +Inf bucket == _count.
	infLine := lineWith(out, `c_seconds_bucket{stage="x",le="+Inf"`)
	countLine := lineWith(out, "c_seconds_count")
	var inf, count int64
	fmt.Sscanf(infLine[strings.LastIndexByte(infLine, ' ')+1:], "%d", &inf)
	fmt.Sscanf(countLine[strings.LastIndexByte(countLine, ' ')+1:], "%d", &count)
	if inf != count || count == 0 {
		t.Fatalf("+Inf (%d) != _count (%d)", inf, count)
	}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

func lineWith(out, substr string) string {
	for _, ln := range strings.Split(out, "\n") {
		if strings.Contains(ln, substr) {
			return ln
		}
	}
	return ""
}

// BenchmarkMetricsRender measures a /metrics-shaped scrape: the series mix
// approximates capserved's registry (labelled counters, sampled gauges,
// per-handler histograms with observations).
func BenchmarkMetricsRender(b *testing.B) {
	r := NewRegistry()
	kinds := []string{"simulate", "plan", "validate", "forecast"}
	for _, k := range kinds {
		r.Counter("bench_jobs_submitted_total", "h", Labels{"kind": k}).v.Add(100)
		r.Counter("bench_jobs_completed_total", "h", Labels{"kind": k, "state": "done"}).v.Add(90)
		r.Counter("bench_jobs_completed_total", "h", Labels{"kind": k, "state": "failed"}).v.Add(10)
		r.Counter("bench_breaker_transitions_total", "h", Labels{"kind": k, "to": "open"})
		r.Gauge("bench_breaker_state", "h", Labels{"kind": k}, func() float64 { return 0 })
	}
	for _, h := range append([]string{"jobs", "healthz", "readyz", "metrics"}, kinds...) {
		r.Counter("bench_http_requests_total", "h", Labels{"handler": h}).v.Add(1000)
		hist := r.Histogram("bench_request_duration_seconds", "h", Labels{"handler": h}, DefBuckets)
		for i := 0; i < 64; i++ {
			hist.Observe(float64(i) / 100)
		}
	}
	for i := 0; i < 8; i++ {
		n := i
		r.Gauge(fmt.Sprintf("bench_gauge_%d", n), "h", nil, func() float64 { return float64(n) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.WriteText(io.Discard)
	}
}
