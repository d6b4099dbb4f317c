// Package diffcheck is the differential verification harness for the four
// execution paths of a capacity-planning request:
//
//	(a) sequential  — headroom.Session with one shard
//	(b) sharded     — the same Session fanned out over N shards
//	(c) distributed — a 3-worker in-process capserved cluster (loopback HTTP)
//	(d) cache-served — the capserved HTTP surface, cache miss then resubmit
//
// Every path must render byte-identical result JSON for the same request; a
// fault-injected run must name the identical failed_pools set on every path
// that can degrade. Cases are generated from a single int64 seed, so any
// failure replays exactly: `go run ./cmd/capcheck -seed N` reruns case N and
// prints the first diverging field.
package diffcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"headroom"
	"headroom/internal/faults"
	"headroom/internal/leakcheck"
	"headroom/internal/server"
)

// Case is one generated differential scenario. Everything that influences
// the computation is in here, so a Case replays identically from its Seed.
type Case struct {
	Seed   int64              // the generator seed that produced this case
	Kind   string             // "simulate" or "plan"
	Req    server.PlanRequest // simulate cases use only the embedded SimulateRequest
	Shards int                // shard count for the sharded/dist/served paths (>= 2)
	Fault  *FaultPlan         // nil for a fault-free case
}

// FaultPlan injects one deterministic fault rule into every path's source.
// Exactly one pool is faulted (and never all of them), so offset-based
// per-pool ordinals — and therefore the injection point — are identical
// across shard counts and worker placements. A faulted case runs with
// partial results on, so no job is retried: a transient or panic fault fires
// once per injector and degrades its shard, a permanent one on every run.
type FaultPlan struct {
	Kind faults.Kind
	Seed int64
	Pool string
	At   int
}

// Rule materializes the plan's single injector rule.
func (fp *FaultPlan) Rule() faults.Rule {
	return faults.Rule{Kind: fp.Kind, Pools: []string{fp.Pool}, At: []int{fp.At}, Msg: "diffcheck injected fault"}
}

func (fp *FaultPlan) String() string {
	if fp == nil {
		return "none"
	}
	return fmt.Sprintf("%s pool=%s at=%d seed=%d", fp.Kind, fp.Pool, fp.At, fp.Seed)
}

// cheapPools are the default-fleet pools whose one-day simulation costs
// ~16-35 ms; the expensive pools (B ~80 ms, D ~140 ms) appear rarely so a
// 100-case run stays fast.
var cheapPools = []string{"A", "C", "E", "F", "G", "H"}
var dearPools = []string{"B", "D", "I"}

// Generate derives a Case deterministically from seed. The distribution is
// biased toward cheap pools and one-day horizons so large case counts stay
// affordable, while still covering plan jobs, multi-day horizons, every
// fault kind and shard counts 2..4.
func Generate(seed int64) Case {
	rnd := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed, Kind: "simulate"}
	if rnd.Intn(100) < 40 {
		c.Kind = "plan"
	}

	npools := 2 + rnd.Intn(2) // 2..3
	perm := rnd.Perm(len(cheapPools))
	pools := make([]string, 0, npools+1)
	for _, i := range perm[:npools] {
		pools = append(pools, cheapPools[i])
	}
	if rnd.Intn(100) < 10 { // occasionally include an expensive pool
		pools = append(pools, dearPools[rnd.Intn(len(dearPools))])
	}
	sort.Strings(pools)

	c.Req.Pools = pools
	c.Req.Days = 1
	if rnd.Intn(100) < 15 {
		c.Req.Days = 2
	}
	c.Req.Seed = 1 + rnd.Int63n(5)
	c.Shards = 2 + rnd.Intn(3) // 2..4
	if c.Kind == "plan" {
		c.Req.LatencyBudgetMs = float64(1 + rnd.Intn(10))
		c.Req.PlanSeed = 1 + rnd.Int63n(4)
		c.Req.MaxGroups = rnd.Intn(5) // 0 = default
		c.Req.MaxReductionFrac = 0    // default (1/3)
		if rnd.Intn(100) < 25 {
			c.Req.MaxReductionFrac = 0.25 * float64(1+rnd.Intn(3))
		}
	}

	switch p := rnd.Intn(100); {
	case p < 50: // fault-free
	case p < 75:
		c.Fault = &FaultPlan{Kind: faults.Permanent}
	case p < 90:
		c.Fault = &FaultPlan{Kind: faults.Transient}
	default:
		c.Fault = &FaultPlan{Kind: faults.Panic}
	}
	if c.Fault != nil {
		c.Fault.Seed = 1 + rnd.Int63n(1000)
		c.Fault.Pool = pools[rnd.Intn(len(pools))]
		c.Fault.At = rnd.Intn(4)
	}
	return c
}

func (c Case) String() string {
	return fmt.Sprintf("seed=%d kind=%s pools=%v days=%d fleet_seed=%d shards=%d fault={%s}",
		c.Seed, c.Kind, c.Req.Pools, c.Req.Days, c.Req.Seed, c.Shards, c.Fault)
}

// body renders the HTTP request body for the served and distributed paths.
func (c Case) body() ([]byte, error) {
	if c.Kind == "plan" {
		return json.Marshal(c.Req)
	}
	return json.Marshal(c.Req.SimulateRequest)
}

// PathResult is one execution path's outcome.
type PathResult struct {
	Name        string
	JSON        json.RawMessage // result bytes; nil when the run failed
	Err         string          // whole-run failure, "" on success (degraded is a success)
	Degraded    bool
	FailedPools []string
	CacheHit    bool // served path only: resubmission answered from cache
}

// Report is the full outcome of one differential case.
type Report struct {
	Case  Case
	Paths []PathResult
	// Diff is empty when every invariant held; otherwise it names the first
	// divergence, including the first diverging JSON field where applicable.
	Diff string
}

// Options tunes RunCase.
type Options struct {
	// LeakGrace is how long teardown may take before goroutines count as
	// leaked; default 5 s.
	LeakGrace time.Duration
}

// RunCase executes one case through all four paths and cross-checks the
// results. The returned error reports harness-level failures (a server that
// would not start); divergences are reported in Report.Diff so callers can
// print the case alongside.
func RunCase(ctx context.Context, c Case, opts Options) (*Report, error) {
	if opts.LeakGrace <= 0 {
		opts.LeakGrace = 5 * time.Second
	}
	startGoroutines := runtime.NumGoroutine()
	rep := &Report{Case: c}

	if err := c.Req.SimulateRequest.Normalize(); err != nil {
		return nil, fmt.Errorf("diffcheck: case %d normalize: %w", c.Seed, err)
	}

	seq := c.runLibrary(ctx, 1)
	shd := c.runLibrary(ctx, c.Shards)
	dst, err := c.runDist(ctx)
	if err != nil {
		return nil, err
	}
	srv, again, err := c.runServed(ctx)
	if err != nil {
		return nil, err
	}
	rep.Paths = []PathResult{seq, shd, dst, srv, again}

	rep.Diff = c.compare(ctx, rep.Paths)

	// Every path has torn its servers down; nothing may survive.
	if err := leakcheck.Settle(startGoroutines, opts.LeakGrace); err != nil && rep.Diff == "" {
		rep.Diff = err.Error()
	}
	return rep, nil
}

// runLibrary is paths (a) and (b): a Session over the request's fleet with
// the given shard count, rendered through the same result builders the
// server uses.
func (c Case) runLibrary(ctx context.Context, shards int) PathResult {
	name := "sequential"
	if shards > 1 {
		name = fmt.Sprintf("sharded(%d)", shards)
	}
	out := PathResult{Name: name}

	cfg, err := c.Req.Fleet()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	// The server's source, under a fresh fault injector per path.
	var src headroom.Source = headroom.NewSimSource(cfg, c.Req.Days)
	if c.Fault != nil {
		src = faults.New(c.Fault.Seed, c.Fault.Rule()).Source(src)
	}
	opts := []headroom.Option{
		headroom.WithSource(src),
		headroom.WithShards(shards),
		headroom.WithPartialResults(c.Fault != nil),
	}
	planCfg := c.Req.PlanConfig()
	if c.Kind == "plan" {
		opts = append(opts, headroom.WithPlanConfig(planCfg))
	}
	sess, err := headroom.New(context.Background(), opts...)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	agg, err := sess.Simulate(ctx, 0)
	var pe *headroom.PartialError
	if errors.As(err, &pe) && agg != nil {
		err = nil
	} else if err != nil {
		out.Err = err.Error()
		return out
	} else {
		pe = nil
	}

	var v any
	switch c.Kind {
	case "plan":
		planSess, perr := headroom.New(context.Background(), headroom.WithPlanConfig(planCfg))
		if perr != nil {
			out.Err = perr.Error()
			return out
		}
		plans, perr := planSess.Plan(ctx, agg)
		if perr != nil {
			out.Err = perr.Error()
			return out
		}
		v = server.BuildPlanResult(c.Req, plans, pe)
	default:
		res, berr := server.BuildSimulateResult(c.Req.SimulateRequest, agg, pe)
		if berr != nil {
			out.Err = berr.Error()
			return out
		}
		v = res
	}
	raw, err := json.Marshal(v)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.JSON = raw
	out.Degraded, out.FailedPools = degradedOf(raw)
	return out
}

// serverConfig is the shared shape of every capserved instance a case
// spins up; faulted instances get their own fresh injector so one-shot
// rules behave as they would in a real per-process deployment.
func (c Case) serverConfig(withFaults bool) server.Config {
	cfg := server.Config{
		Workers: 2, QueueDepth: 16, CacheSize: 16, JobTimeout: time.Minute,
		Shards:         c.Shards,
		PartialResults: c.Fault != nil,
	}
	if c.Fault != nil && withFaults {
		cfg.Faults = faults.New(c.Fault.Seed, c.Fault.Rule())
	}
	return cfg
}

const distToken = "diffcheck-dist-token"

// runDist is path (c): a coordinator distributing shards over three worker
// servers, all in-process behind httptest.
func (c Case) runDist(ctx context.Context) (PathResult, error) {
	out := PathResult{Name: "dist(3)"}

	var workers []*httptest.Server
	var servers []*server.Server
	defer func() {
		for _, ts := range workers {
			ts.Close()
		}
		for _, s := range servers {
			s.Shutdown(context.Background())
		}
	}()

	peers := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		wcfg := c.serverConfig(true)
		wcfg.DistToken = distToken
		ws := server.New(wcfg)
		ts := httptest.NewServer(ws.Handler())
		servers = append(servers, ws)
		workers = append(workers, ts)
		peers = append(peers, ts.URL)
	}

	ccfg := c.serverConfig(false)
	ccfg.Peers = peers
	ccfg.DistToken = distToken
	ccfg.HedgeAfter = -1 // deterministic: no hedges against an injector's one-shot state
	coord := server.New(ccfg)
	cts := httptest.NewServer(coord.Handler())
	servers = append(servers, coord)
	workers = append(workers, cts)

	v, err := c.submit(ctx, cts.URL)
	if err != nil {
		return out, err
	}
	fill(&out, v)
	return out, nil
}

// skippedResubmit marks a served-again path that was intentionally not run.
const skippedResubmit = "skipped: one-shot fault state consumed by first run"

// runServed is path (d): one plain capserved instance, submitted to twice —
// a cache miss, then a resubmission that must be a byte-identical hit for
// cacheable results and a byte-identical recomputation for permanently
// degraded ones. Transient and panic faults skip the resubmission: the
// one-shot rule is consumed by the first (degraded, uncached) run, so the
// second run is legitimately a different, fault-free computation.
func (c Case) runServed(ctx context.Context) (PathResult, PathResult, error) {
	out := PathResult{Name: "served"}
	again := PathResult{Name: "served-again"}

	s := server.New(c.serverConfig(true))
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()

	v, err := c.submit(ctx, ts.URL)
	if err != nil {
		return out, again, err
	}
	fill(&out, v)

	if c.Fault != nil && c.Fault.Kind != faults.Permanent {
		again.Err = skippedResubmit
		return out, again, nil
	}
	v2, err := c.submit(ctx, ts.URL)
	if err != nil {
		return out, again, err
	}
	fill(&again, v2)
	st := s.CacheStats()
	again.CacheHit = st.Hits > 0
	return out, again, nil
}

// jobView is the subset of the served job envelope the harness reads.
type jobView struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts the case to base and returns the terminal job view.
func (c Case) submit(ctx context.Context, base string) (jobView, error) {
	var v jobView
	body, err := c.body()
	if err != nil {
		return v, fmt.Errorf("diffcheck: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/"+c.Kind+"?wait=true", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return v, fmt.Errorf("diffcheck: submit %s: %w", c.Kind, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("diffcheck: decode job view (HTTP %d): %w", resp.StatusCode, err)
	}
	return v, nil
}

// fill maps a job view into a PathResult. The job envelope re-indents the
// embedded result, so the bytes are compacted back before comparison —
// indentation is presentation; field order and float formatting are
// preserved verbatim by json.RawMessage and stay comparable.
func fill(out *PathResult, v jobView) {
	switch v.State {
	case "done":
		var buf bytes.Buffer
		if err := json.Compact(&buf, v.Result); err != nil {
			out.Err = "compact result: " + err.Error()
			return
		}
		out.JSON = buf.Bytes()
		out.Degraded, out.FailedPools = degradedOf(out.JSON)
	default:
		out.Err = v.Error
		if out.Err == "" {
			out.Err = "job state " + string(v.State)
		}
	}
}

// degradedOf extracts the degraded flag and failed_pools list from result
// bytes.
func degradedOf(raw []byte) (bool, []string) {
	var v struct {
		Degraded    bool     `json:"degraded"`
		FailedPools []string `json:"failed_pools"`
	}
	_ = json.Unmarshal(raw, &v)
	return v.Degraded, v.FailedPools
}

// compare cross-checks the five path results and returns the first
// divergence, or "".
func (c Case) compare(ctx context.Context, paths []PathResult) string {
	seq, shd, dst, srv, again := paths[0], paths[1], paths[2], paths[3], paths[4]

	degrading := c.Fault != nil
	if !degrading {
		// Fault-free: every path must succeed with byte-identical results —
		// including the resubmission, which must also be a cache hit.
		for _, p := range paths {
			if p.Err != "" {
				return fmt.Sprintf("%s failed: %s", p.Name, p.Err)
			}
		}
		for _, p := range []PathResult{shd, dst, srv, again} {
			if !bytes.Equal(seq.JSON, p.JSON) {
				return fmt.Sprintf("%s differs from sequential at %s", p.Name, FirstDiff(seq.JSON, p.JSON))
			}
		}
		if !again.CacheHit {
			return "served-again was not a cache hit for a cacheable result"
		}
		return ""
	}

	// Degrading fault (any kind). The sequential path streams one
	// shard, so the fault fails its whole run — that asymmetry is the
	// documented single-stream semantics, and the path is asserted to fail
	// rather than compared byte-wise.
	if seq.Err == "" {
		return "sequential run succeeded despite a degrading fault in its only shard"
	}
	// A fault fails its whole shard, so pools sharing the faulted pool's
	// shard fail with it; the invariant is that every degrading path agrees
	// on the identical set and that the injected pool is in it.
	multi := []PathResult{shd, dst, srv}
	for _, p := range multi {
		if p.Err != "" {
			return fmt.Sprintf("%s failed outright, want degraded result: %s", p.Name, p.Err)
		}
		if !p.Degraded {
			return fmt.Sprintf("%s not marked degraded", p.Name)
		}
		if !contains(p.FailedPools, c.Fault.Pool) {
			return fmt.Sprintf("%s failed_pools = %v, missing injected pool %s", p.Name, p.FailedPools, c.Fault.Pool)
		}
		if !reflect.DeepEqual(p.FailedPools, shd.FailedPools) {
			return fmt.Sprintf("%s failed_pools = %v, sharded path says %v", p.Name, p.FailedPools, shd.FailedPools)
		}
	}
	// The three degrading paths must agree on everything except the failure
	// detail text (a dist shard error carries worker/HTTP context a local
	// goroutine error cannot).
	shdStripped, err := stripFailures(shd.JSON)
	if err != nil {
		return "strip failures: " + err.Error()
	}
	for _, p := range []PathResult{dst, srv} {
		ps, err := stripFailures(p.JSON)
		if err != nil {
			return "strip failures: " + err.Error()
		}
		if !bytes.Equal(shdStripped, ps) {
			return fmt.Sprintf("%s differs from %s (failures stripped) at %s", p.Name, shd.Name, FirstDiff(shdStripped, ps))
		}
	}
	// Permanent faults fire on every attempt, so the uncached resubmission
	// recomputes the identical degraded bytes.
	if c.Fault.Kind == faults.Permanent {
		if again.Err != "" {
			return "served-again failed: " + again.Err
		}
		if again.CacheHit {
			return "degraded result was served from cache"
		}
		if !bytes.Equal(srv.JSON, again.JSON) {
			return "served-again differs from served at " + FirstDiff(srv.JSON, again.JSON)
		}
	}
	// Survivor cross-check (simulate only): the surviving pools must be
	// byte-identical to a fault-free sequential run restricted to them —
	// per-pool seeding means degradation must not perturb survivors.
	if c.Kind == "simulate" {
		ref := c.survivorReference(shd.FailedPools)
		res := ref.runLibrary(ctx, 1)
		if res.Err != "" {
			return "survivor reference run failed: " + res.Err
		}
		var got, want struct {
			Pools json.RawMessage `json:"pools"`
		}
		if err := json.Unmarshal(shd.JSON, &got); err != nil {
			return "unmarshal degraded pools: " + err.Error()
		}
		if err := json.Unmarshal(res.JSON, &want); err != nil {
			return "unmarshal reference pools: " + err.Error()
		}
		if !bytes.Equal(got.Pools, want.Pools) {
			return "degraded survivors differ from fault-free reference at " + FirstDiff(want.Pools, got.Pools)
		}
	}
	return ""
}

// survivorReference is the same case without faults, restricted to the
// pools that survived — the fault's whole shard fails, so the failed set
// can include pools beyond the injected one.
func (c Case) survivorReference(failed []string) Case {
	ref := c
	ref.Fault = nil
	var pools []string
	for _, p := range c.Req.Pools {
		if !contains(failed, p) {
			pools = append(pools, p)
		}
	}
	ref.Req.Pools = pools
	return ref
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// stripFailures removes the failures array (whose error strings legitimately
// differ per path) and re-canonicalizes the JSON for comparison. Go's map
// marshaling sorts keys and re-encodes floats in shortest round-trip form,
// which is stable for values that were produced by encoding/json.
func stripFailures(raw []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "failures")
	return json.Marshal(m)
}

// FirstDiff walks two JSON documents and names the first differing field
// path with both values, for triage. Falls back to a byte-offset report for
// non-JSON input.
func FirstDiff(a, b []byte) string {
	var va, vb any
	ea, eb := json.Unmarshal(a, &va), json.Unmarshal(b, &vb)
	if ea != nil || eb != nil {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		return fmt.Sprintf("byte %d (%q vs %q)", i, clip(a, i), clip(b, i))
	}
	if path, l, r, ok := diffValue("$", va, vb); ok {
		return fmt.Sprintf("%s: %v != %v", path, l, r)
	}
	return "(no JSON difference; bytes differ only in formatting)"
}

func clip(b []byte, at int) string {
	end := at + 20
	if end > len(b) {
		end = len(b)
	}
	if at > len(b) {
		at = len(b)
	}
	return string(b[at:end])
}

// diffValue returns the path and both values of the first difference.
func diffValue(path string, a, b any) (string, any, any, bool) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return path, typeName(a), typeName(b), true
		}
		keys := make([]string, 0, len(av)+len(bv))
		seen := map[string]bool{}
		for k := range av {
			keys = append(keys, k)
			seen[k] = true
		}
		for k := range bv {
			if !seen[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			l, lok := av[k]
			r, rok := bv[k]
			if !lok {
				return path + "." + k, "(absent)", r, true
			}
			if !rok {
				return path + "." + k, l, "(absent)", true
			}
			if p, dl, dr, diff := diffValue(path+"."+k, l, r); diff {
				return p, dl, dr, true
			}
		}
		return "", nil, nil, false
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return path, typeName(a), typeName(b), true
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			if p, dl, dr, diff := diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); diff {
				return p, dl, dr, true
			}
		}
		if len(av) != len(bv) {
			return path, fmt.Sprintf("len %d", len(av)), fmt.Sprintf("len %d", len(bv)), true
		}
		return "", nil, nil, false
	default:
		if !reflect.DeepEqual(a, b) {
			return path, a, b, true
		}
		return "", nil, nil, false
	}
}

func typeName(v any) string {
	if v == nil {
		return "null"
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", v), "interface ")
}
