// Package prom is a minimal Prometheus text-format exposition library
// (counters, gauges, histograms) with no external dependencies, shared by
// every layer of the pipeline: the HTTP server registers its capserved_*
// families on its own Registry, while non-HTTP packages (the session layer,
// the job queue) record stage timings on the process-wide Default registry.
// Only write-side types are provided: a Registry renders the version 0.0.4
// text format a Prometheus scraper (or the e2e tests) parses.
//
// Rendering is scrape-optimized: WriteText snapshots families under read
// locks and renders into a pooled buffer with strconv append primitives, so
// a scrape does not contend with metric writes and allocates almost
// nothing.
package prom

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric's label set, rendered sorted by key.
type Labels map[string]string

func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes are
// legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// series is one sample-producing member of a family.
type series interface {
	// write appends exposition lines for this series to buf, given the
	// family name and pre-rendered label suffix.
	write(buf *bytes.Buffer, name, lbl string)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

func (c *Counter) write(buf *bytes.Buffer, name, lbl string) {
	buf.WriteString(name)
	buf.WriteString(lbl)
	buf.WriteByte(' ')
	appendInt(buf, c.v.Load())
	buf.WriteByte('\n')
}

// GaugeFunc samples a value at scrape time — used for queue depth, cache
// size and other states owned elsewhere.
type GaugeFunc func() float64

func (g GaugeFunc) write(buf *bytes.Buffer, name, lbl string) {
	buf.WriteString(name)
	buf.WriteString(lbl)
	buf.WriteByte(' ')
	appendFloat(buf, g())
	buf.WriteByte('\n')
}

// Histogram is a fixed-bucket histogram (typically of seconds).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending, +Inf implicit
	buckets []int64   // non-cumulative per-bound counts
	inf     int64     // observations above the last bound
	sum     float64
	count   int64
	// le holds the pre-rendered per-bucket label suffixes (bounds plus
	// +Inf), computed at registration so a scrape allocates nothing for
	// them.
	le []string
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]int64, len(bounds))}
}

// setLabels pre-renders the per-bucket label suffixes for the series' label
// set.
func (h *Histogram) setLabels(lbl string) {
	h.le = make([]string, 0, len(h.bounds)+1)
	for _, b := range h.bounds {
		h.le = append(h.le, leLabel(lbl, formatFloat(b)))
	}
	h.le = append(h.le, leLabel(lbl, "+Inf"))
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.sum += v
	h.count++
}

func (h *Histogram) write(buf *bytes.Buffer, name, lbl string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Exposition buckets are cumulative.
	var cum int64
	for i := range h.bounds {
		cum += h.buckets[i]
		writeBucket(buf, name, h.le[i], cum)
	}
	cum += h.inf
	writeBucket(buf, name, h.le[len(h.le)-1], cum)
	buf.WriteString(name)
	buf.WriteString("_sum")
	buf.WriteString(lbl)
	buf.WriteByte(' ')
	appendFloat(buf, h.sum)
	buf.WriteByte('\n')
	buf.WriteString(name)
	buf.WriteString("_count")
	buf.WriteString(lbl)
	buf.WriteByte(' ')
	appendInt(buf, h.count)
	buf.WriteByte('\n')
}

func writeBucket(buf *bytes.Buffer, name, lbl string, cum int64) {
	buf.WriteString(name)
	buf.WriteString("_bucket")
	buf.WriteString(lbl)
	buf.WriteByte(' ')
	appendInt(buf, cum)
	buf.WriteByte('\n')
}

// leLabel inserts a bucket's le="v" pair into a pre-rendered label suffix.
func leLabel(lbl, v string) string {
	pair := `le="` + EscapeLabel(v) + `"`
	if lbl == "" {
		return "{" + pair + "}"
	}
	return lbl[:len(lbl)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func appendInt(buf *bytes.Buffer, v int64) {
	var tmp [20]byte
	buf.Write(strconv.AppendInt(tmp[:0], v, 10))
}

func appendFloat(buf *bytes.Buffer, v float64) {
	var tmp [32]byte
	buf.Write(strconv.AppendFloat(tmp[:0], v, 'g', -1, 64))
}

// family groups same-named series with their HELP/TYPE header.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	mu     sync.RWMutex
	order  []string
	series map[string]series // rendered label suffix -> series
}

// add registers a new series, panicking on a duplicate label set: two
// writers silently sharing one series is a config bug worth failing loudly
// on.
func (f *family) add(lbl Labels, s series) {
	key := lbl.render()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.series[key]; dup {
		panic(fmt.Sprintf("prom: duplicate metric %s%s", f.name, key))
	}
	f.order = append(f.order, key)
	f.series[key] = s
}

// getOrAdd returns the existing series for lbl, or registers the one built
// by mk. Used for label sets discovered at runtime (per-pool timings).
func (f *family) getOrAdd(lbl Labels, mk func() series) series {
	key := lbl.render()
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = mk()
	f.order = append(f.order, key)
	f.series[key] = s
	return s
}

func (f *family) write(buf *bytes.Buffer) {
	buf.WriteString("# HELP ")
	buf.WriteString(f.name)
	buf.WriteByte(' ')
	buf.WriteString(escapeHelp(f.help))
	buf.WriteString("\n# TYPE ")
	buf.WriteString(f.name)
	buf.WriteByte(' ')
	buf.WriteString(f.typ)
	buf.WriteByte('\n')
	// Render under the read lock: registration (the only writer) is rare,
	// and Observe/Inc never take the family lock.
	f.mu.RLock()
	for _, key := range f.order {
		f.series[key].write(buf, f.name, key)
	}
	f.mu.RUnlock()
}

// Registry holds metric families in registration order.
type Registry struct {
	mu   sync.RWMutex
	fams []*family
	byID map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*family)}
}

// Default is the process-wide registry non-HTTP packages register pipeline
// metrics on (stage histograms, queue wait/run splits). The capserved
// /metrics endpoint renders it alongside the server's own registry.
var Default = NewRegistry()

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byID[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("prom: metric %s reregistered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, series: make(map[string]series)}
	r.fams = append(r.fams, f)
	r.byID[name] = f
	return f
}

// Counter registers (or extends) a counter family with one labelled series.
func (r *Registry) Counter(name, help string, lbl Labels) *Counter {
	c := &Counter{}
	r.family(name, help, "counter").add(lbl, c)
	return c
}

// Gauge registers a scrape-time-sampled gauge series.
func (r *Registry) Gauge(name, help string, lbl Labels, fn GaugeFunc) {
	r.family(name, help, "gauge").add(lbl, fn)
}

// CounterFunc registers an unlabelled scrape-time-sampled counter, for
// monotone values owned elsewhere (cache hit totals).
func (r *Registry) CounterFunc(name, help string, fn GaugeFunc) {
	r.family(name, help, "counter").add(nil, fn)
}

// Histogram registers a histogram series with the given upper bounds.
func (r *Registry) Histogram(name, help string, lbl Labels, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	h.setLabels(lbl.render())
	r.family(name, help, "histogram").add(lbl, h)
	return h
}

// LazyHistogram returns the histogram series for (name, lbl), registering
// it on first use — for label values discovered at runtime (per-pool
// simulate timings). Bounds apply only on first registration.
func (r *Registry) LazyHistogram(name, help string, lbl Labels, bounds []float64) *Histogram {
	s := r.family(name, help, "histogram").getOrAdd(lbl, func() series {
		h := newHistogram(bounds)
		h.setLabels(lbl.render())
		return h
	})
	return s.(*Histogram)
}

// bufPool recycles render buffers across scrapes; a steady-state scrape
// allocates only what fmt boxing in gauge funcs needs.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteText renders every family in the Prometheus text exposition format.
// Families render from a read-locked snapshot into a pooled buffer, then a
// single Write hits w.
func (r *Registry) WriteText(w io.Writer) (int, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		// Don't let one giant scrape pin a huge buffer in the pool forever.
		if buf.Cap() <= 1<<20 {
			bufPool.Put(buf)
		}
	}()
	r.mu.RLock()
	fams := r.fams
	r.mu.RUnlock()
	for _, f := range fams {
		f.write(buf)
	}
	return w.Write(buf.Bytes())
}

// DefBuckets are general request-latency bounds in seconds: sub-millisecond
// cache hits through multi-second fleet simulations.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}

// StageBuckets are pipeline-stage duration bounds in seconds: microsecond
// merges and forecasts through multi-second sharded simulations.
var StageBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30}
