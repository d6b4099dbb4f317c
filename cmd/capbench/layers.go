package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"headroom"
	"headroom/internal/core"
	"headroom/internal/dist"
	"headroom/internal/jobcache"
	"headroom/internal/jobs"
	"headroom/internal/metrics"
	"headroom/internal/obs"
	"headroom/internal/server"
	"headroom/internal/sim"
	"headroom/internal/trace"
)

// The layer replay calls the layers' public functions one at a time, in the
// order a request passes through them, with a span of the benchmark's own
// around each call. It runs once per replay seed (config.replaySeeds); a
// layer metric is the median over the seeds.
const loopCalls = 2000 // calls per micro-loop (decode, key, queue hop, dispatch)

// layerSet says which groups of layers a workload's requests pass through;
// the replay skips the others, whose metrics then read 0 on that workload.
type layerSet struct {
	compute bool // sim → ingest → shards → merge → plan → render
	wire    bool // aggregate wire codec, shard endpoint, dispatch
	serve   bool // decode, cache key and hit, queue hop, /metrics, spans
	csv     bool // trace CSV write/read, replay source
}

var layersOf = map[string]layerSet{
	"cold_plan":  {compute: true, serve: true},
	"cache_hot":  {serve: true},
	"dup_burst":  {compute: true, serve: true},
	"dist3_plan": {compute: true, wire: true, serve: true},
	"cli_pipe":   {csv: true},
}

type replayer struct {
	ctx  context.Context
	e    *env
	rec  *recorder
	seen map[string][]float64 // metric → one value per seed
}

func (p *replayer) put(name string, v float64) { p.seen[name] = append(p.seen[name], v) }

// call runs fn inside a span under parent and returns how long it took and
// how many bytes were allocated meanwhile.
func (p *replayer) call(parent int, name, req string, fn func(id int) error) (time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	d := p.rec.timed(parent, name, req, func(id int) { err = fn(id) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, float64(m1.TotalAlloc - m0.TotalAlloc), err
}

// stageSpans turns the stage events a Session reports (an existing public
// option; the server does not set it) into child spans of parent. Shard
// events arrive from the shard goroutines and overlap in time.
func (p *replayer) stageSpans(parent int, req string) headroom.StageObserver {
	return func(ev headroom.StageEvent) {
		if ev.Stage == "aggregate.shard" || ev.Stage == "merge" {
			now := p.rec.now()
			p.rec.add(parent, "headroom."+ev.Stage, req, now-ev.Duration, now)
		}
	}
}

// replay measures the layers of w's path and merges their metrics into
// vals.
func replay(ctx context.Context, w workload, e *env, rec *recorder, vals map[string]float64, res *result) error {
	set := layersOf[w.name]
	p := &replayer{ctx: ctx, e: e, rec: rec, seen: map[string][]float64{}}
	var chainMs []float64
	for i := int64(0); i < int64(e.cfg.replaySeeds); i++ {
		seed := e.cfg.seedAt(taxOffset + 100 + i)
		if set.compute {
			chain, err := p.computeSeed(seed, set.wire)
			if err != nil {
				return err
			}
			chainMs = append(chainMs, chain)
		}
		if set.compute || set.csv {
			if err := p.poolSeed(seed, set.csv); err != nil {
				return err
			}
		}
	}
	if set.serve {
		if err := p.serveLoops(); err != nil {
			return err
		}
	}
	if set.wire {
		if err := p.dispatchLoop(); err != nil {
			return err
		}
	}
	for name, xs := range p.seen {
		vals[name] = median(xs)
	}

	// What one cold request does, summed from its parts, against what one
	// cold request takes when it is alone on the server.
	if set.compute {
		single := e.base
		if set.wire {
			var err error
			if single, err = e.serve(server.Config{}); err != nil {
				return err
			}
		}
		alone, err := p.oneClient(single)
		if err != nil {
			return err
		}
		if set.wire {
			overCluster, err := p.oneClient(e.base)
			if err != nil {
				return err
			}
			vals["dist.tax_ms"] = overCluster - alone
		}
		chain := median(chainMs) + (vals["server.decode_us"]+vals["jobcache.key_us"]+vals["jobs.noop_us"])/1e3
		vals["capbench.replay_coverage"] = chain / alone
		res.note("replay: one cold request's parts sum to %.1f ms; alone on a single-node server it takes %.1f ms", chain, alone)
	}
	if w.name == "cache_hot" {
		parts := (vals["server.decode_us"]+vals["jobcache.key_us"]+vals["jobs.noop_us"])/1e3 + vals["jobcache.hit_ns"]/1e6
		if whole := res.Timings["op_ms_traced"].P50; whole > 0 && parts < 0.7*whole {
			res.note("cache_hot: the measured parts (decode, key, queue hop, hit) sum to %.3f ms, %.0f%% of op_p50_ms %.3f ms; the rest is job-view render and HTTP, which no public call isolates",
				parts, 100*parts/whole, whole)
		}
	}
	return nil
}

// computeSeed replays one cold request's compute for seed and returns the
// time of the part a server really runs for it (sharded simulate, plan,
// render), in ms.
func (p *replayer) computeSeed(seed int64, wire bool) (float64, error) {
	cfg := p.e.cfg
	id := fmt.Sprint(seed)
	req, err := cfg.planRequest(seed)
	if err != nil {
		return 0, err
	}
	fleet, err := req.Fleet()
	if err != nil {
		return 0, err
	}
	root := p.rec.start(0, "replay.compute", id)
	defer p.rec.end(root)

	var simr *sim.Simulator
	d, _, err := p.call(root, "sim.new", id, func(int) (err error) { simr, err = sim.New(fleet); return })
	if err != nil {
		return 0, err
	}
	p.put("sim.new_ms", ms(d))

	var n float64
	gen, alloc, err := p.call(root, "sim.gen", id, func(int) error {
		return simr.RunContext(p.ctx, cfg.days*simr.TicksPerDay(), func(trace.Record) error { n++; return nil })
	})
	if err != nil {
		return 0, err
	}
	p.put("sim.gen_rec_per_s", n/gen.Seconds())
	p.put("sim.gen_alloc_b_per_rec", alloc/n)

	simulate := func(name string, shards int) (*headroom.Aggregator, time.Duration, float64, error) {
		var agg *headroom.Aggregator
		d, alloc, err := p.call(root, name, id, func(span int) error {
			sess, err := headroom.New(p.ctx,
				headroom.WithSource(headroom.NewSimSource(fleet, cfg.days)),
				headroom.WithShards(shards),
				headroom.WithObserver(p.stageSpans(span, id)))
			if err != nil {
				return err
			}
			agg, err = sess.Simulate(p.ctx, 0)
			return err
		})
		return agg, d, alloc, err
	}
	_, ingest, alloc, err := simulate("headroom.ingest", 1)
	if err != nil {
		return 0, err
	}
	p.put("headroom.ingest_rec_per_s", n/ingest.Seconds())
	p.put("headroom.ingest_alloc_b_per_rec", alloc/n)
	p.put("metrics.add_share", 1-gen.Seconds()/ingest.Seconds())

	// Shard count 0 is capserved's default: one shard per CPU.
	agg, sharded, _, err := simulate("headroom.simulate", 0)
	if err != nil {
		return 0, err
	}
	p.put("headroom.sharded_speedup", ingest.Seconds()/sharded.Seconds())

	var plans []headroom.PoolPlan
	plan, alloc, err := p.call(root, "core.plan", id, func(int) (err error) {
		plans, err = core.Plan(p.ctx, agg, req.PlanConfig())
		return
	})
	if err != nil {
		return 0, err
	}
	p.put("core.plan_ms", ms(plan))
	p.put("core.plan_ms_per_pooldc", ms(plan)/float64(len(plans)))
	p.put("core.plan_alloc_mb", alloc/mb)

	var rendered []byte
	render, _, err := p.call(root, "server.render", id, func(int) (err error) {
		rendered, err = json.Marshal(server.BuildPlanResult(req, plans, nil))
		return
	})
	if err != nil {
		return 0, err
	}
	p.put("server.render_ms", ms(render))
	p.put("server.result_kb", float64(len(rendered))/1e3)

	// The three shards a dist3_plan coordinator hands out, one after the
	// other: the slowest bounds the distributed job.
	src := headroom.NewSimSource(fleet, cfg.days)
	of := len(src.Shards(3))
	sess, err := headroom.New(p.ctx, headroom.WithSource(src))
	if err != nil {
		return 0, err
	}
	aggs := make([]*headroom.Aggregator, of)
	var slowest, sum float64
	for i := range aggs {
		d, _, err := p.call(root, "headroom.shard", id, func(int) (err error) {
			aggs[i], _, err = sess.AggregateShard(p.ctx, i, of)
			return
		})
		if err != nil {
			return 0, err
		}
		slowest, sum = max(slowest, ms(d)), sum+ms(d)
	}
	p.put("headroom.shard_max_ms", slowest)
	p.put("headroom.shard_skew", slowest/(sum/float64(of)))

	if wire {
		if err := p.wireSeed(root, id, req, aggs); err != nil {
			return 0, err
		}
	}

	merge, _, err := p.call(root, "metrics.merge", id, func(int) error {
		for _, a := range aggs[1:] {
			aggs[0].Merge(a)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	p.put("metrics.merge_ms", ms(merge))
	return ms(sharded + plan + render), nil
}

// wireSeed puts the seed's shard aggregates through the wire codec and asks
// a worker for the same shards over its internal endpoint, so the response
// envelope can be compared with the raw encoding it carries. The decoded
// aggregates replace the originals: the merge that follows is the
// coordinator's.
func (p *replayer) wireSeed(root int, id string, req server.PlanRequest, aggs []*headroom.Aggregator) error {
	var encMs, decMs, wireBytes, respBytes float64
	var rtt []float64
	for i := range aggs {
		var enc []byte
		d, _, err := p.call(root, "metrics.wire_encode", id, func(int) (err error) {
			enc, err = headroom.EncodeAggregator(aggs[i])
			return
		})
		if err != nil {
			return err
		}
		encMs, wireBytes = encMs+ms(d), wireBytes+float64(len(enc))
		d, _, err = p.call(root, "metrics.wire_decode", id, func(int) (err error) {
			aggs[i], err = headroom.DecodeAggregator(enc)
			return
		})
		if err != nil {
			return err
		}
		decMs += ms(d)

		body, err := json.Marshal(map[string]any{
			"days": req.Days, "seed": req.Seed, "pools": req.Pools, "shard": i, "of": len(aggs),
		})
		if err != nil {
			return err
		}
		var n int
		d, _, err = p.call(root, "server.shard_rtt", id, func(int) (err error) {
			n, err = p.e.shard(p.ctx, p.e.workers[i%len(p.e.workers)], body)
			return
		})
		if err != nil {
			return err
		}
		rtt, respBytes = append(rtt, ms(d)), respBytes+float64(n)
	}
	p.put("metrics.wire_encode_ms", encMs)
	p.put("metrics.wire_decode_ms", decMs)
	p.put("metrics.wire_mb", wireBytes/mb)
	p.put("server.shard_rtt_ms", median(rtt))
	p.put("server.shard_resp_mb", respBytes/mb)
	p.put("server.envelope_ratio", respBytes/wireBytes)
	return nil
}

// shard posts one shard request straight to a worker and returns the size
// of its response.
func (e *env) shard(ctx context.Context, worker string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+dist.DefaultPath, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(dist.TokenHeader, distToken)
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("worker %s: HTTP %d: %s", worker, resp.StatusCode, clip(buf.Bytes()))
	}
	return buf.Len(), nil
}

// poolSeed replays the single-pool layers: Aggregator.Add over collected
// records and, for the CLI path, everything between capsim's generator and
// capplan's planner.
func (p *replayer) poolSeed(seed int64, csv bool) error {
	cfg := p.e.cfg
	id := fmt.Sprint(seed)
	req := server.SimulateRequest{Days: cfg.days, Seed: seed, Pools: []string{cfg.cliPool}}
	fleet, err := req.Fleet()
	if err != nil {
		return err
	}
	root := p.rec.start(0, "replay.pool", id)
	defer p.rec.end(root)

	var simr *sim.Simulator
	d, _, err := p.call(root, "sim.new", id, func(int) (err error) { simr, err = sim.New(fleet); return })
	if err != nil {
		return err
	}
	ticks := cfg.days * simr.TicksPerDay()
	if csv {
		p.put("sim.new_ms", ms(d))
		var n float64
		gen, alloc, err := p.call(root, "sim.gen", id, func(int) error {
			return simr.RunContext(p.ctx, ticks, func(trace.Record) error { n++; return nil })
		})
		if err != nil {
			return err
		}
		p.put("sim.gen_rec_per_s", n/gen.Seconds())
		p.put("sim.gen_alloc_b_per_rec", alloc/n)
		if simr, err = sim.New(fleet); err != nil { // a simulator's timeline runs once
			return err
		}
	}

	var recs []trace.Record
	if _, _, err = p.call(root, "sim.collect", id, func(int) (err error) { recs, err = simr.RunCollect(ticks); return }); err != nil {
		return err
	}
	n := float64(len(recs))
	add, _, err := p.call(root, "metrics.add", id, func(int) error {
		agg := metrics.NewAggregator()
		for _, r := range recs {
			agg.Add(r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("metrics.add_rec_per_s", n/add.Seconds())
	if !csv {
		return nil
	}

	var file bytes.Buffer
	write, _, err := p.call(root, "trace.csv_write", id, func(int) error {
		w := trace.NewCSVWriter(&file)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	p.put("trace.csv_write_rec_per_s", n/write.Seconds())
	p.put("trace.csv_b_per_rec", float64(file.Len())/n)

	var parsed []trace.Record
	read, _, err := p.call(root, "trace.csv_read", id, func(int) (err error) {
		parsed, err = trace.ReadCSV(bytes.NewReader(file.Bytes()))
		return
	})
	if err != nil {
		return err
	}
	p.put("trace.csv_read_rec_per_s", float64(len(parsed))/read.Seconds())

	// capplan's own sequence: replay source → Aggregate → Plan.
	planCfg := headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 1}
	var agg *headroom.Aggregator
	ingest, _, err := p.call(root, "headroom.replay", id, func(span int) error {
		sess, err := headroom.New(p.ctx,
			headroom.WithSource(headroom.NewReplaySource(parsed)),
			headroom.WithObserver(p.stageSpans(span, id)))
		if err != nil {
			return err
		}
		agg, err = sess.Aggregate(p.ctx, nil)
		return err
	})
	if err != nil {
		return err
	}
	p.put("headroom.replay_rec_per_s", float64(len(parsed))/ingest.Seconds())

	var plans []headroom.PoolPlan
	plan, alloc, err := p.call(root, "core.plan", id, func(int) (err error) {
		plans, err = core.Plan(p.ctx, agg, planCfg)
		return
	})
	if err != nil {
		return err
	}
	p.put("core.plan_ms", ms(plan))
	p.put("core.plan_ms_per_pooldc", ms(plan)/float64(len(plans)))
	p.put("core.plan_alloc_mb", alloc/mb)
	return nil
}

// serveLoops times the calls a cache hit is made of — each far too short
// for one span, so each runs in a loop under one span and reports its mean.
func (p *replayer) serveLoops() error {
	cfg := p.e.cfg
	body := cfg.body(cfg.seedAt(hotOffset))
	root := p.rec.start(0, "replay.serve", "serve")
	defer p.rec.end(root)
	loop := func(name string, calls int, fn func() error) (time.Duration, error) {
		d, _, err := p.call(root, fmt.Sprintf("%s x%d", name, calls), "serve", func(int) error {
			for i := 0; i < calls; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
		return d / time.Duration(calls), err
	}

	var req server.PlanRequest
	d, err := loop("server.decode", loopCalls, func() error {
		req = server.PlanRequest{}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return err
		}
		if err := req.SimulateRequest.Normalize(); err != nil {
			return err
		}
		_, err := req.Fleet()
		_ = req.PlanConfig()
		return err
	})
	if err != nil {
		return err
	}
	p.put("server.decode_us", float64(d)/1e3)

	var key string
	if d, err = loop("jobcache.key", loopCalls, func() (err error) { key, err = jobcache.Key("plan", req); return }); err != nil {
		return err
	}
	p.put("jobcache.key_us", float64(d)/1e3)

	cache := jobcache.New(128)
	resident := func() (any, error) { return json.RawMessage("{}"), nil }
	if _, _, err := cache.Do(key, resident); err != nil {
		return err
	}
	if d, err = loop("jobcache.hit", 100*loopCalls, func() error { _, _, err := cache.Do(key, resident); return err }); err != nil {
		return err
	}
	p.put("jobcache.hit_ns", float64(d))

	queue := jobs.New(jobs.Config{})
	d, err = loop("jobs.noop", loopCalls, func() error {
		j, err := queue.SubmitCtx(p.ctx, "noop", func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			return err
		}
		_, err = j.Wait(p.ctx)
		return err
	})
	if cerr := queue.Close(p.ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.put("jobs.noop_us", float64(d)/1e3)

	// A context without a tracer is what every request not being traced
	// carries through the pipeline's StartSpan calls.
	if d, err = loop("obs.span_disabled", 1000*loopCalls, func() error {
		_, sp := obs.StartSpan(p.ctx, "capbench")
		sp.End()
		return nil
	}); err != nil {
		return err
	}
	p.put("obs.span_disabled_ns", float64(d))

	var scrapes []float64
	_, err = loop("obs.prom_render", 100, func() error {
		var page bytes.Buffer
		status, lat, err := p.e.roundTrip(p.ctx, http.MethodGet, p.e.base+"/metrics", nil, &page)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("/metrics: HTTP %d", status)
		}
		scrapes = append(scrapes, float64(lat)/1e3)
		return err
	})
	p.put("obs.prom_render_us", median(scrapes))
	return err
}

// dispatchLoop times dist.Client.Dispatch against workers that answer at
// once over an in-process transport: placement, breaker and hedge
// bookkeeping with no work and no network behind it.
func (p *replayer) dispatchLoop() error {
	client, err := dist.New(dist.Config{
		Peers: []string{"http://w1", "http://w2", "http://w3"},
		Token: distToken,
		Transport: dist.Loopback{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("ok"))
		})},
	})
	if err != nil {
		return err
	}
	defer client.Close()
	sh := dist.Shard{Key: "A,B", Index: 0, Of: 3, Body: []byte(`{"days":1}`)}
	d, _, err := p.call(0, fmt.Sprintf("dist.dispatch x%d", loopCalls), "serve", func(int) error {
		for i := 0; i < loopCalls; i++ {
			if _, err := client.Dispatch(p.ctx, sh); err != nil {
				return err
			}
		}
		return nil
	})
	p.put("dist.dispatch_us", float64(d)/loopCalls/1e3)
	return err
}

// oneClient sends config.replaySeeds fresh-seed requests to base, one at a time,
// and returns their median latency in ms. Called for two servers it sends
// both the same seeds; neither has seen them.
func (p *replayer) oneClient(base string) (float64, error) {
	var lat []float64
	for i := int64(0); i < int64(p.e.cfg.replaySeeds); i++ {
		r := p.e.plan(p.ctx, base, p.e.cfg.seedAt(taxOffset+i), true)
		if r.err != nil {
			return 0, r.err
		}
		lat = append(lat, ms(r.latency))
	}
	return median(lat), nil
}
