package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one metric, as BENCHMARK.json does.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from a run with tracing off.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rec_per_s", "rec/s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers (layer = package) plus the
// end-to-end readings only one workload has. A traced run reports every
// one on every workload; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"sim.new_ms", "ms", "lower"},
	{"sim.gen_rec_per_s", "rec/s", "higher"},
	{"sim.gen_alloc_b_per_rec", "B/rec", "lower"},
	{"headroom.ingest_rec_per_s", "rec/s", "higher"},
	{"headroom.ingest_alloc_b_per_rec", "B/rec", "lower"},
	{"headroom.sharded_speedup", "ratio", "higher"},
	{"headroom.shard_max_ms", "ms", "lower"},
	{"headroom.shard_skew", "ratio", "lower"},
	{"headroom.replay_rec_per_s", "rec/s", "higher"},
	{"metrics.add_rec_per_s", "rec/s", "higher"},
	{"metrics.add_share", "ratio", "lower"},
	{"metrics.merge_ms", "ms", "lower"},
	{"metrics.wire_encode_ms", "ms", "lower"},
	{"metrics.wire_decode_ms", "ms", "lower"},
	{"metrics.wire_mb", "MB", "lower"},
	{"core.plan_ms", "ms", "lower"},
	{"core.plan_ms_per_pooldc", "ms", "lower"},
	{"core.plan_alloc_mb", "MB", "lower"},
	{"trace.csv_write_rec_per_s", "rec/s", "higher"},
	{"trace.csv_read_rec_per_s", "rec/s", "higher"},
	{"trace.csv_b_per_rec", "B/rec", "lower"},
	{"server.decode_us", "us", "lower"},
	{"server.render_ms", "ms", "lower"},
	{"server.result_kb", "KB", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.shard_rtt_ms", "ms", "lower"},
	{"server.shard_resp_mb", "MB", "lower"},
	{"server.envelope_ratio", "ratio", "lower"},
	{"jobs.noop_us", "us", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.dup_workers_busy", "count", "lower"},
	{"jobs.refused", "count", "lower"},
	{"jobcache.key_us", "us", "lower"},
	{"jobcache.hit_ns", "ns", "lower"},
	{"jobcache.hit_ratio", "ratio", "higher"},
	{"jobcache.shared", "count", "higher"},
	{"dist.dispatch_us", "us", "lower"},
	{"dist.tax_ms", "ms", "lower"},
	{"dist.reroutes", "count", "lower"},
	{"dist.hedges", "count", "lower"},
	{"dist.hedge_wins", "count", "lower"},
	{"obs.prom_render_us", "us", "lower"},
	{"obs.span_disabled_ns", "ns", "lower"},
	{"capsim.wall_ms", "ms", "lower"},
	{"capsim.csv_mb", "MB", "lower"},
	{"capplan.wall_ms", "ms", "lower"},
	{"capplan.peak_rss_mb", "MB", "lower"},
	{"capbench.trace_overhead_frac", "ratio", "lower"},
	{"capbench.replay_coverage", "ratio", "higher"},
	{"bystander_p50_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"error_frac", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. Metrics holds exactly the metrics the
// contract asks of the run (end-to-end with tracing off, per-layer with it
// on); the rest is detail for the committed BENCH file and the reader.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra are end-to-end readings only this workload has, measured in the
	// same untraced window (they are per-layer metrics in BENCHMARK.json).
	Extra map[string]metric `json:"extra,omitempty"`
	// Timings gives every timing's sample count and quartiles.
	Timings map[string]timing `json:"timings,omitempty"`
	// Slices are the measured window's stretches with the box's speed
	// around each (end-to-end runs only; see reference.go).
	Slices   []slice   `json:"slices,omitempty"`
	SelfTime []selfRow `json:"self_time,omitempty"`
	Notes    []string  `json:"notes,omitempty"`

	spans []span
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fill sets every metric of defs from vals, 0 where vals has none.
func (r *result) fill(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
}

const mb = 1e6

// setUp sets the workload up cfg.setups times, tearing all but the last
// down again, and returns the last with every set-up's duration in seconds.
// With a reference, each duration is divided by the box's speed factor
// around it, as the measured window's times are.
func setUp(ctx context.Context, w workload, cfg config, ref *reference, res *result) (*env, []float64, error) {
	var e *env
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				res.note("tear-down between set-ups: %v", err)
			}
		}
		e = newEnv(cfg)
		f, before := 1.0, 0.0
		if ref != nil {
			before = ref.slowdown()
		}
		start := time.Now()
		err := w.setup(ctx, e)
		d := time.Since(start).Seconds()
		if ref != nil {
			f = factor((before + ref.slowdown()) / 2)
		}
		took = append(took, d/f)
		if err != nil {
			return nil, nil, errors.Join(fmt.Errorf("%s set-up: %w", w.name, err), e.close())
		}
	}
	return e, took, nil
}

// warmUp runs the discarded window and records what went wrong in it.
func warmUp(ctx context.Context, w workload, e *env, res *result) {
	var t tally
	drive(ctx, w, e, e.cfg.warmup, true, t.add)
	if t.failed > 0 {
		res.note("warm-up: %d of %d operations failed, first: %s", t.failed, t.attempted, t.reasons[0])
	}
	runtime.GC()
}

// window is one measured window and what the process allocated during it.
type window struct {
	tally
	wall       time.Duration
	allocBytes uint64
}

func measure(ctx context.Context, w workload, e *env, d time.Duration, each func(sample)) *window {
	win := &window{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win.wall = drive(ctx, w, e, d, false, func(s sample) {
		win.add(s)
		if each != nil && s.err == nil {
			each(s)
		}
	})
	runtime.ReadMemStats(&m1)
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return win
}

// scale multiplies every time of the window by k, keeping each operation's
// stopwatch time in rawOp.
func (win *window) scale(k float64) {
	by := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	for i := range win.samples {
		s := &win.samples[i]
		s.rawOp = s.op
		s.op, s.bystander = by(s.op), by(s.bystander)
	}
	win.wall = by(win.wall)
}

// merge adds another window's operations to win.
func (win *window) merge(o *window) {
	win.attempted += o.attempted
	win.failed += o.failed
	win.reasons = append(win.reasons, o.reasons...)
	win.samples = append(win.samples, o.samples...)
	win.wall += o.wall
	win.allocBytes += o.allocBytes
}

// extras are the end-to-end readings that are not in the end-to-end list:
// those only some workloads have, and those too unsteady on some workload
// to carry a bound. Call it right after the window: peak_rss_mb is the
// process's peak so far.
func (win *window) extras(w workload) map[string]float64 {
	out := map[string]float64{"error_frac": win.errorFrac()}
	n := len(win.samples)
	if n == 0 {
		return out
	}
	if w.name == "cli_pipe" {
		for _, s := range win.samples {
			out["peak_rss_mb"] = max(out["peak_rss_mb"], s.cli.capsimRSS, s.cli.capplanRSS)
		}
		return out
	}
	// Client and server share this process, so these are what both of them
	// cost together.
	out["peak_rss_mb"] = selfRSSMB()
	out["alloc_mb_per_op"] = float64(win.allocBytes) / mb / float64(n)
	if w.name == "dup_burst" {
		out["bystander_p50_ms"] = median(win.series(func(s sample) float64 { return ms(s.bystander) }))
	}
	return out
}

// sliceLen is how long the clients run between two readings of the box's
// speed: short enough that the speed holds over it, long enough that the
// readings (100 ms each) stay under a tenth of the window.
const sliceLen = 1250 * time.Millisecond

// slice is one stretch of the measured window: the box's speed around it,
// the factor its times were divided by, and what the stopwatch said.
type slice struct {
	Slowdown float64 `json:"box_slowdown"`
	Factor   float64 `json:"factor"`
	Ops      int     `json:"ops"`
	RawP50Ms float64 `json:"raw_p50_ms"`
}

// measureSliced runs the measured window in slices, reads the box's speed
// before and after each, and divides each slice's times by its factor.
func measureSliced(ctx context.Context, w workload, e *env, ref *reference, total time.Duration) (*window, []slice) {
	all := &window{}
	var slices []slice
	at := ref.slowdown()
	for left := total; left > 0 && ctx.Err() == nil; {
		win := measure(ctx, w, e, min(sliceLen, left), nil)
		left -= win.wall
		next := ref.slowdown()
		slow := (at + next) / 2
		at = next
		f := factor(slow)
		slices = append(slices, slice{Slowdown: slow, Factor: f, Ops: len(win.samples), RawP50Ms: median(win.opMs())})
		win.scale(1 / f)
		all.merge(win)
	}
	return all, slices
}

// runEndToEnd is the untraced run: the workload's end-to-end metrics.
func runEndToEnd(ctx context.Context, w workload, cfg config) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds()}
	ref, err := startReference(ctx)
	if err != nil {
		return nil, err
	}
	e, setups, err := setUp(ctx, w, cfg, ref, res)
	if err != nil {
		return nil, errors.Join(err, ref.close())
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "capbench: tear-down:", err)
		}
	}()
	warmUp(ctx, w, e, res)
	win, slices := measureSliced(ctx, w, e, ref, cfg.measure)
	if err := ref.close(); err != nil {
		return nil, err
	}

	d := summarize(win.opMs())
	done := float64(d.N)
	vals := map[string]float64{
		"op_p50_ms": d.P50,
		"op_p90_ms": d.P90,
		"ops_per_s": done / win.wall.Seconds(),
		"rec_per_s": done * float64(e.records) / win.wall.Seconds(),
		"setup_s":   median(setups),
	}
	res.fill(endToEnd, vals)
	res.Slices = slices
	res.Timings = map[string]timing{
		"op_ms":     d,
		"op_ms_raw": summarize(win.series(func(s sample) float64 { return ms(s.rawOp) })),
		"setup_s":   summarize(setups),
	}
	res.Extra = map[string]metric{}
	for name, v := range win.extras(w) {
		res.Extra[name] = metric{v, unitOf(name)}
	}
	var slow []float64
	for _, sl := range slices {
		slow = append(slow, sl.Slowdown)
	}
	res.Extra["box_slowdown"] = metric{median(slow), "ratio"}
	if w.name == "dup_burst" {
		res.Timings["bystander_ms"] = summarize(win.series(func(s sample) float64 { return ms(s.bystander) }))
	}
	res.finish(&win.tally)
	return res, nil
}

// finish records the run's failure accounting.
func (r *result) finish(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, why := range t.reasons {
		r.note("failed: %s", why)
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// runTraced is the traced run: a live pass of two thirds of the window in
// which every other operation is recorded as spans (the difference between
// the two kinds is the tracing overhead; taking turns operation by
// operation, a drift of the box falls on both alike), then the replay of
// the workload's layers one public call at a time. Only per-layer metrics
// come out of it.
func runTraced(ctx context.Context, w workload, cfg config) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: 1, Seconds: cfg.measure.Seconds()}
	cfg.setups = 1
	e, _, err := setUp(ctx, w, cfg, nil, res)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "capbench: tear-down:", err)
		}
	}()
	warmUp(ctx, w, e, res)

	rec := newRecorder()
	var mu sync.Mutex
	var turn int
	var plainMs, tracedMs []float64
	before := e.scrape(ctx)
	live := measure(ctx, w, e, cfg.measure*2/3, func(s sample) {
		mu.Lock()
		defer mu.Unlock()
		if turn++; turn%2 == 0 {
			plainMs = append(plainMs, ms(s.op))
			return
		}
		start := time.Now()
		recordOp(rec, w, s)
		tracedMs = append(tracedMs, ms(s.op+time.Since(start))) // a traced operation pays for its recording
	})
	after := e.scrape(ctx)

	vals := liveRows(w, live, before, after)
	for name, v := range live.extras(w) {
		vals[name] = v
	}
	if p := median(plainMs); p > 0 {
		vals["capbench.trace_overhead_frac"] = median(tracedMs)/p - 1
	}
	res.Timings = map[string]timing{"op_ms_untraced": summarize(plainMs), "op_ms_traced": summarize(tracedMs)}
	if err := replay(ctx, w, e, rec, vals, res); err != nil {
		return nil, fmt.Errorf("%s layer replay: %w", w.name, err)
	}
	res.fill(perLayer, vals)
	res.spans = rec.snapshot()
	res.SelfTime = selfTimes(res.spans)
	res.finish(&live.tally)
	return res, nil
}

// recordOp turns a finished operation into spans: the operation as the
// client saw it, and inside it the job's queue wait and run as the server
// stamped them (one process, one clock). The operation's self time is then
// what HTTP, decode and render add around the job.
func recordOp(rec *recorder, w workload, s sample) {
	end := rec.now()
	req := s.job.JobID
	if req == "" {
		req = w.name
	}
	id := rec.add(0, w.name+".op", req, end-s.op, end)
	if w.name == "cli_pipe" {
		rec.add(id, "capsim", req, end-s.op, end-s.cli.capplan)
		rec.add(id, "capplan", req, end-s.cli.capplan, end)
		return
	}
	if s.job.Started != nil && s.job.Finished != nil {
		rec.add(id, "jobs.queued", req, s.job.Created.Sub(rec.epoch), s.job.Started.Sub(rec.epoch))
		rec.add(id, "jobs.run", req, s.job.Started.Sub(rec.epoch), s.job.Finished.Sub(rec.epoch))
	}
}

// liveRows are the layer metrics read off a live pass: job-status
// timestamps per operation and /metrics counter deltas across the pass.
func liveRows(w workload, win *window, before, after map[string]float64) map[string]float64 {
	vals := map[string]float64{}
	n := float64(len(win.samples))
	if n == 0 {
		return vals
	}
	if w.name == "cli_pipe" {
		vals["capsim.wall_ms"] = median(win.series(func(s sample) float64 { return ms(s.cli.capsim) }))
		vals["capplan.wall_ms"] = median(win.series(func(s sample) float64 { return ms(s.cli.capplan) }))
		vals["capsim.csv_mb"] = median(win.series(func(s sample) float64 { return float64(s.cli.csvBytes) / mb }))
		vals["capplan.peak_rss_mb"] = median(win.series(func(s sample) float64 { return s.cli.capplanRSS }))
		return vals
	}
	var wait, run, over []float64
	for _, s := range win.samples {
		if s.job.Started == nil || s.job.Finished == nil {
			continue
		}
		wait = append(wait, ms(s.job.Started.Sub(s.job.Created)))
		run = append(run, ms(s.job.Finished.Sub(*s.job.Started)))
		over = append(over, ms(s.jobWait-s.job.Finished.Sub(s.job.Created)))
	}
	vals["jobs.queue_wait_ms"] = median(wait)
	vals["jobs.run_ms"] = median(run)
	vals["server.overhead_ms"] = median(over)
	if w.name == "dup_burst" {
		vals["jobs.dup_workers_busy"] = median(win.series(func(s sample) float64 { return float64(s.workersBusy) }))
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses, shared := delta("capserved_cache_hits_total"), delta("capserved_cache_misses_total"), delta("capserved_cache_deduped_total")
	if total := hits + misses + shared; total > 0 {
		vals["jobcache.hit_ratio"] = hits / total
	}
	vals["jobcache.shared"] = shared / n
	vals["jobs.refused"] = delta("capserved_queue_rejections_total")
	vals["dist.reroutes"] = delta("capserved_dist_reroutes_total")
	vals["dist.hedges"] = delta("capserved_dist_hedges_total")
	vals["dist.hedge_wins"] = delta("capserved_dist_hedge_wins_total")
	return vals
}

// scrape reads the server's /metrics and sums every series by metric name.
// cli_pipe has no server and scrapes nothing.
func (e *env) scrape(ctx context.Context) map[string]float64 {
	out := map[string]float64{}
	if e.base == "" {
		return out
	}
	var raw bytes.Buffer
	status, _, err := e.roundTrip(ctx, http.MethodGet, e.base+"/metrics", nil, &raw)
	if err != nil || status != http.StatusOK {
		return out
	}
	sc := bufio.NewScanner(&raw)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
