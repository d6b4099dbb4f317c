package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"headroom/internal/server"
)

// workload is one traffic pattern: how it is set up, how many closed-loop
// clients drive it, and what one operation is.
type workload struct {
	name    string
	why     string
	clients int
	// setup builds the servers (or binaries), warms what the workload needs
	// resident and computes the reference answers.
	setup func(ctx context.Context, e *env) error
	// op runs one operation. warm marks warm-up operations, which draw
	// their seeds from a range the measured window never touches.
	op func(ctx context.Context, e *env, warm bool) sample
}

// workloads lists the five in the order a full run takes them. Names are
// fixed: BENCHMARK.json and later issues cite them.
var workloads = []workload{
	{
		name:    "cold_plan",
		why:     "2 closed-loop clients, every request a fresh seed, so every request is a cache miss: sim, ingest, aggregate, plan and render carry the time",
		clients: 2,
		setup: func(ctx context.Context, e *env) (err error) {
			if e.base, err = e.serve(server.Config{}); err != nil {
				return err
			}
			return e.addOracles(ctx)
		},
		op: coldOp,
	},
	{
		name:    "cache_hot",
		why:     "2 closed-loop clients cycling over 8 warmed keys: every compute layer is bypassed; decode, key, queue hop, cache hit, render and HTTP carry the time",
		clients: 2,
		setup: func(ctx context.Context, e *env) (err error) {
			if e.base, err = e.serve(server.Config{}); err != nil {
				return err
			}
			return e.warm(ctx, hotKeys)
		},
		op: hotOp,
	},
	{
		name:    "dup_burst",
		why:     "1 client submits 6 identical fresh requests, then a warmed-key request beside them: single-flight joiners pin the workers while a resident answer waits",
		clients: 1,
		setup: func(ctx context.Context, e *env) (err error) {
			if e.base, err = e.serve(server.Config{}); err != nil {
				return err
			}
			if err = e.addOracles(ctx); err != nil {
				return err
			}
			return e.warm(ctx, 1)
		},
		op: dupOp,
	},
	{
		name:    "dist3_plan",
		why:     "1 closed-loop client on a coordinator with 3 workers, fresh seeds: cold_plan's compute plus dispatch, aggregate wire encode/decode, the shard envelope and the merge",
		clients: 1,
		setup: func(ctx context.Context, e *env) error {
			if err := e.serveCluster(); err != nil {
				return err
			}
			return e.addOracles(ctx)
		},
		op: coldOp,
	},
	{
		name:    "cli_pipe",
		why:     "capsim writes a CSV trace, capplan reads and plans it, as built binaries: the only path through trace CSV write/parse and the replay source",
		clients: 1,
		setup:   cliSetup,
		op:      cliOp,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is what one operation reports. An operation that failed (err set)
// counts as attempted and failed and contributes no timing at all.
type sample struct {
	err   error
	op    time.Duration // the operation, as its user waits for it
	rawOp time.Duration // op before it was divided by the box's speed factor

	// Served workloads: the job the user waited on, as the server stamped
	// it, and how long the client waited for it.
	job     jobView
	jobWait time.Duration

	// dup_burst: the warmed-key request sent beside the duplicates, and how
	// many of the duplicates occupied a worker at the same moment.
	bystander   time.Duration
	workersBusy int

	cli cliRun // cli_pipe
}

func (e *env) seedFor(warm bool) int64 {
	if warm {
		return e.cfg.seedAt(warmupOffset + e.nextWarm.Add(1) - 1)
	}
	return e.cfg.seedAt(e.next.Add(1) - 1)
}

// coldOp: one fresh seed, one waited-for answer.
func coldOp(ctx context.Context, e *env, warm bool) sample {
	seed := e.seedFor(warm)
	r := e.plan(ctx, e.base, seed, true)
	r.checkResult(seed, e.planCount, e.records)
	if r.err == nil {
		r.err = e.matchOracle(seed, r.result)
	}
	return sample{err: r.err, op: r.latency, job: r.view, jobWait: r.latency}
}

// hotOp: one warmed key, whose answer must hash to what the miss returned.
func hotOp(ctx context.Context, e *env, warm bool) sample {
	k := e.hot[int(e.next.Add(1)-1)%len(e.hot)]
	r := e.plan(ctx, e.base, k.seed, true)
	if r.err == nil && r.sum != k.sum {
		r.err = fmt.Errorf("seed %d: cache hit differs from the miss that warmed it", k.seed)
	}
	return sample{err: r.err, op: r.latency, job: r.view, jobWait: r.latency}
}

// dupOp is one round: dupCopies identical fresh-seed requests submitted
// without waiting, at once the bystander — a waited-for request for the
// warmed key — and then every duplicate polled until it is terminal. The
// round ends when the last duplicate's answer has been read.
func dupOp(ctx context.Context, e *env, warm bool) sample {
	seed := e.seedFor(warm)
	start := time.Now()
	ids := make([]string, dupCopies)
	for i := range ids {
		r := e.plan(ctx, e.base, seed, false)
		if r.err != nil {
			return sample{err: fmt.Errorf("duplicate %d: %w", i, r.err)}
		}
		ids[i] = r.view.JobID
	}
	by := e.plan(ctx, e.base, e.hot[0].seed, true)
	if by.err == nil && by.sum != e.hot[0].sum {
		by.err = fmt.Errorf("bystander answer differs from the miss that warmed it")
	}
	if by.err != nil {
		return sample{err: fmt.Errorf("bystander: %w", by.err)}
	}
	views := make([]jobView, dupCopies)
	var first []byte
	for i, id := range ids {
		r := e.job(ctx, id)
		for r.err == nil && r.view.State != "done" && r.view.State != "failed" {
			time.Sleep(200 * time.Microsecond)
			r = e.job(ctx, id)
		}
		if r.err == nil && r.view.State != "done" {
			r.err = fmt.Errorf("job state %q: %s", r.view.State, r.view.Error)
		}
		r.checkResult(seed, e.planCount, e.records)
		if r.err != nil {
			return sample{err: fmt.Errorf("duplicate %d: %w", i, r.err)}
		}
		if i == 0 {
			first = r.result
		} else if !bytes.Equal(first, r.result) {
			return sample{err: fmt.Errorf("seed %d: duplicate %d's result differs from duplicate 0's", seed, i)}
		}
		views[i] = r.view
	}
	s := sample{op: time.Since(start), job: by.view, jobWait: by.latency, bystander: by.latency, workersBusy: maxOverlap(views)}
	s.err = e.matchOracle(seed, first)
	return s
}

// maxOverlap is the largest number of jobs whose [started, finished]
// intervals share an instant — how many workers the duplicates held.
func maxOverlap(views []jobView) int {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, v := range views {
		if v.Started != nil && v.Finished != nil {
			edges = append(edges, edge{*v.Started, 1}, edge{*v.Finished, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta > edges[j].delta // touching intervals overlap
	})
	busy, most := 0, 0
	for _, ed := range edges {
		busy += ed.delta
		most = max(most, busy)
	}
	return most
}

// cliSetup builds the two binaries and runs the pipeline once with
// capplan -shards 1: every measured iteration (default shards, same seed)
// must print the same bytes.
func cliSetup(ctx context.Context, e *env) error {
	if err := e.buildCLI(ctx); err != nil {
		return err
	}
	run, err := e.pipe(ctx, e.cfg.seedAt(0), 1)
	if err != nil {
		return err
	}
	want, err := shapeRecords([]string{e.cfg.cliPool}, e.cfg.days)
	if err != nil {
		return err
	}
	if run.records != want {
		return fmt.Errorf("capsim wrote %d records, the shape has %d", run.records, want)
	}
	e.records, e.cliOracle = want, run.sum
	return nil
}

// cliOp is one capsim → capplan iteration. Every iteration uses the run's
// one seed, so each does the same work and must print the same plan.
func cliOp(ctx context.Context, e *env, warm bool) sample {
	run, err := e.pipe(ctx, e.cfg.seedAt(0), 0)
	if err == nil && run.sum != e.cliOracle {
		err = fmt.Errorf("capplan output differs from the -shards 1 run of the same trace")
	}
	if err == nil && run.records != e.records {
		err = fmt.Errorf("capsim wrote %d records, the shape has %d", run.records, e.records)
	}
	return sample{err: err, op: run.capsim + run.capplan, cli: run}
}

// tally accumulates a window's samples. Failure accounting is open: every
// operation started is attempted, every failed one is counted and named,
// and only successful ones contribute timings.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string // the first few failures, for the report
	samples   []sample // successful operations only
}

func (t *tally) add(s sample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if s.err != nil {
		t.failed++
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, s.err.Error())
		}
		return
	}
	t.samples = append(t.samples, s)
}

func (t *tally) errorFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// opMs returns the successful operations' times in milliseconds.
func (t *tally) opMs() []float64 {
	return t.series(func(s sample) float64 { return ms(s.op) })
}

func (t *tally) series(f func(sample) float64) []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = f(s)
	}
	return out
}

// drive runs w's clients closed-loop for d: each sends its next operation
// only when the previous one has completed. It returns the wall time from
// the first operation's start to the last one's end. An operation that is
// in flight when d elapses is finished and counted, so a window always
// holds whole operations.
func drive(ctx context.Context, w workload, e *env, d time.Duration, warm bool, each func(sample)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				each(w.op(ctx, e, warm))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
