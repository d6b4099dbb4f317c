package obs

// The stage primitive: one value that closes a timed unit of work — its span
// and its duration series — from a single clock reading, plus the
// process-wide duration series on prom.Default that the layers hand to it:
// the session pipeline (per-stage, per-pool) and the job queue (wait-vs-run
// split). Registered here so non-HTTP packages don't need a registry handle;
// the server's /metrics renders prom.Default alongside its own registry.

import (
	"context"
	"time"

	"headroom/internal/obs/prom"
)

var (
	stageSeconds = func() map[string]*prom.Histogram {
		m := map[string]*prom.Histogram{}
		for _, st := range []string{"simulate", "aggregate", "merge", "plan", "validate", "forecast"} {
			m[st] = prom.Default.Histogram("headroom_stage_duration_seconds",
				"Pipeline stage duration, by stage.", prom.Labels{"stage": st}, prom.StageBuckets)
		}
		return m
	}()
	// QueueWaitSeconds is how long jobs sat queued before a worker picked
	// them up.
	QueueWaitSeconds = prom.Default.Histogram("headroom_jobs_queue_wait_seconds",
		"Time a job spent queued before a worker picked it up.", nil, prom.StageBuckets)
	// JobRunSeconds is how long jobs executed once picked up.
	JobRunSeconds = prom.Default.Histogram("headroom_jobs_run_seconds",
		"Time a job spent executing (pickup to terminal state).", nil, prom.StageBuckets)
)

// StageSeconds returns the pre-registered duration series of a pipeline
// stage ("simulate", "aggregate", "merge", "plan", "validate", "forecast").
func StageSeconds(stage string) *prom.Histogram { return stageSeconds[stage] }

// PoolSeconds returns the simulate/aggregate shard duration series of a pool
// ("" is "unknown"); the per-pool series registers on first use.
func PoolSeconds(pool string) *prom.Histogram {
	if pool == "" {
		pool = "unknown"
	}
	return prom.Default.LazyHistogram("headroom_simulate_pool_duration_seconds",
		"Per-pool simulate/aggregate shard duration.", prom.Labels{"pool": pool}, prom.StageBuckets)
}

// Stage is one timed unit of work: a span, the histogram its duration is
// observed into, and the clock reading both are measured from. It is a plain
// value, so starting one costs nothing beyond StartSpan. End it exactly once.
type Stage struct {
	span   *Span
	series *prom.Histogram
	start  time.Time
}

// StartStage starts a span named name (a no-op span when ctx carries no
// tracer, exactly as StartSpan) and the stage's clock. series receives the
// duration at End; nil means span only.
func StartStage(ctx context.Context, name string, series *prom.Histogram, attrs ...Attr) (context.Context, Stage) {
	ctx, sp := StartSpan(ctx, name, attrs...)
	st := Stage{span: sp, series: series, start: sp.start}
	if !sp.Enabled() {
		st.start = time.Now()
	}
	return ctx, st
}

// StartTimer starts a stage that has a series but no span of its own — an
// interval, like a job's queue wait, that no single span covers.
func StartTimer(series *prom.Histogram) Stage {
	return Stage{span: noopSpan, series: series, start: time.Now()}
}

// Span returns the stage's span, for annotations made while the stage runs.
// It is never nil.
func (st Stage) Span() *Span { return st.span }

// End closes the stage from one clock reading: it records attrs and a
// non-nil err on the span, ends the span with the measured duration,
// observes that duration into the series and returns it — so the span, the
// histogram and whatever the caller derives from the result always agree.
func (st Stage) End(err error, attrs ...Attr) time.Duration {
	d := time.Since(st.start)
	st.span.SetAttr(attrs...)
	st.span.RecordError(err)
	st.span.end(d)
	if st.series != nil {
		st.series.Observe(d.Seconds())
	}
	return d
}
