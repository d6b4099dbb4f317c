package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"headroom"
	"headroom/internal/leakcheck"
	"headroom/internal/server"
	"headroom/internal/sim"
)

// Seeds handed to the program are -seed × 10⁶ + offset + 1 (never 0, which
// capserved reads as "default"). The offsets keep the measured, warm-up, hot-key and side-by-side ranges apart
// so no range ever hits a key another one cached.
const (
	seedSpan     = 1_000_000
	warmupOffset = 900_000
	hotOffset    = 800_000
	taxOffset    = 700_000
	hotKeys      = 8
	dupCopies    = 6
	oracleCount  = 4 // the first oracleCount measured operations are checked byte for byte
	distToken    = "capbench-dist-token"
)

// config is everything one run is parameterised by.
type config struct {
	seed    int64
	measure time.Duration // measured window
	warmup  time.Duration // discarded window before it
	setups  int           // how often set-up is repeated (its median is setup_s)
	pools   []string      // the served request shape
	cliPool string        // the pool capsim writes for cli_pipe
	days    int
	// replaySeeds is how many seeds the layer replay runs; a layer metric
	// is the median over them.
	replaySeeds int
	root        string // checkout root, where cmd/capsim and cmd/capplan live
}

func (c config) seedAt(offset int64) int64 { return c.seed*seedSpan + offset + 1 }

// body is the one request shape every served workload sends.
func (c config) body(seed int64) []byte {
	b, _ := json.Marshal(struct {
		Pools []string `json:"pools"`
		Days  int      `json:"days"`
		Seed  int64    `json:"seed"`
	}{c.pools, c.days, seed})
	return b
}

// planRequest is the canonical form capserved gives body(seed): sorted
// pools plus the documented plan defaults (budget 5 ms, plan seed 2).
func (c config) planRequest(seed int64) (server.PlanRequest, error) {
	req := server.PlanRequest{
		SimulateRequest: server.SimulateRequest{Days: c.days, Seed: seed, Pools: append([]string(nil), c.pools...)},
		LatencyBudgetMs: 5,
		PlanSeed:        2,
	}
	return req, req.SimulateRequest.Normalize()
}

// oracle renders the plan result for seed from a sequential, single-shard
// Session — the reference every execution path must match byte for byte.
// It also returns the number of records the source produced.
func (c config) oracle(ctx context.Context, seed int64) (result []byte, records int, err error) {
	req, err := c.planRequest(seed)
	if err != nil {
		return nil, 0, err
	}
	fleet, err := req.Fleet()
	if err != nil {
		return nil, 0, err
	}
	var mu sync.Mutex
	sess, err := headroom.New(ctx,
		headroom.WithSource(headroom.NewSimSource(fleet, req.Days)),
		headroom.WithShards(1),
		headroom.WithPlanConfig(req.PlanConfig()),
		headroom.WithObserver(func(ev headroom.StageEvent) {
			if ev.Stage == "aggregate" {
				mu.Lock()
				records = ev.Records
				mu.Unlock()
			}
		}))
	if err != nil {
		return nil, 0, err
	}
	agg, err := sess.Simulate(ctx, 0)
	if err != nil {
		return nil, 0, err
	}
	plans, err := sess.Plan(ctx, agg)
	if err != nil {
		return nil, 0, err
	}
	result, err = json.Marshal(server.BuildPlanResult(req, plans, nil))
	return result, records, err
}

// shapeRecords is the exact record count of one request of the shape: one
// record per server per 120-second window.
func shapeRecords(pools []string, days int) (int, error) {
	req := server.SimulateRequest{Days: days, Seed: 1, Pools: append([]string(nil), pools...)}
	if err := req.Normalize(); err != nil {
		return 0, err
	}
	fleet, err := req.Fleet()
	if err != nil {
		return 0, err
	}
	s, err := sim.New(fleet)
	if err != nil {
		return 0, err
	}
	return sim.TotalServers(fleet) * days * s.TicksPerDay(), nil
}

// env is one set-up of one workload: the servers, the client, the oracles
// and the temp dir, plus what tears them down.
type env struct {
	cfg        config
	base       string // URL the clients talk to
	client     *http.Client
	stops      []func() error // run in reverse by close
	goroutines int            // before set-up, for the leak check

	records   int              // records one operation covers
	planCount int              // pool-DC plans in every result of the shape
	oracles   map[int64][]byte // seed → reference result bytes
	hot       []hotKey         // warmed keys (cache_hot; [0] is dup_burst's bystander)
	workers   []string         // dist3_plan worker URLs

	tmp, capsim, capplan string
	cliOracle            [sha256.Size]byte

	next, nextWarm atomic.Int64
}

type hotKey struct {
	seed int64
	sum  [sha256.Size]byte
}

func newEnv(cfg config) *env {
	return &env{
		cfg:        cfg,
		goroutines: runtime.NumGoroutine(),
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		oracles:    map[int64][]byte{},
	}
}

// close tears the set-up down: servers drained, temp dir removed, idle
// connections dropped, then a leak check and a GC so nothing of this
// set-up — goroutines or heap — is left for whatever runs next.
func (e *env) close() error {
	var errs []error
	for i := len(e.stops) - 1; i >= 0; i-- {
		if err := e.stops[i](); err != nil {
			errs = append(errs, err)
		}
	}
	e.stops = nil
	e.client.CloseIdleConnections()
	if err := leakcheck.Settle(e.goroutines, 5*time.Second); err != nil {
		errs = append(errs, err)
	}
	runtime.GC()
	return errors.Join(errs...)
}

// serve starts a real capserved on a loopback TCP listener and returns its
// base URL; the server is drained by close.
func (e *env) serve(cfg server.Config) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	e.stops = append(e.stops, func() error {
		cancel()
		return <-done
	})
	return "http://" + ln.Addr().String(), nil
}

// serveCluster starts three workers and a coordinator that splits every job
// into three shards over them; e.base becomes the coordinator.
func (e *env) serveCluster() error {
	for i := 0; i < 3; i++ {
		u, err := e.serve(server.Config{DistToken: distToken})
		if err != nil {
			return err
		}
		e.workers = append(e.workers, u)
	}
	var err error
	e.base, err = e.serve(server.Config{Shards: 3, Peers: e.workers, DistToken: distToken})
	return err
}

// addOracles computes the reference bytes for the first oracleCount
// measured seeds, two at a time (one per CPU of the 2-CPU box this is
// sized for), and fixes the shape's record and plan counts from them.
func (e *env) addOracles(ctx context.Context) error {
	want, err := shapeRecords(e.cfg.pools, e.cfg.days)
	if err != nil {
		return err
	}
	e.records = want
	type out struct {
		seed    int64
		result  []byte
		records int
		err     error
	}
	results := make(chan out, oracleCount)
	sem := make(chan struct{}, 2)
	for i := int64(0); i < oracleCount; i++ {
		seed := e.cfg.seedAt(i)
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			b, n, err := e.cfg.oracle(ctx, seed)
			results <- out{seed, b, n, err}
		}()
	}
	for i := 0; i < oracleCount; i++ {
		o := <-results
		if o.err != nil {
			err = errors.Join(err, fmt.Errorf("oracle for seed %d: %w", o.seed, o.err))
			continue
		}
		if o.records != want {
			err = errors.Join(err, fmt.Errorf("oracle for seed %d streamed %d records, the shape has %d", o.seed, o.records, want))
		}
		e.oracles[o.seed] = o.result
		var res planResult
		if uerr := json.Unmarshal(o.result, &res); uerr != nil {
			err = errors.Join(err, uerr)
		}
		e.planCount = len(res.Plans)
	}
	return err
}

// warm computes n keys starting at hotOffset (cache misses, two in flight)
// checks each result in full and remembers its digest as delivered; later
// hits must reproduce it.
func (e *env) warm(ctx context.Context, n int) error {
	var err error
	e.records, err = shapeRecords(e.cfg.pools, e.cfg.days)
	if err != nil {
		return err
	}
	e.hot = make([]hotKey, n)
	errs := make([]error, n)
	counts := make([]int, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range e.hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := e.cfg.seedAt(hotOffset + int64(i))
			r := e.plan(ctx, e.base, seed, true)
			r.checkResult(seed, e.planCount, e.records)
			if r.err != nil {
				errs[i] = fmt.Errorf("warming: %w", r.err)
				return
			}
			e.hot[i] = hotKey{seed: seed, sum: r.sum}
			counts[i] = len(r.parsed.Plans)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, c := range counts {
		if c == 0 || c != counts[0] {
			return fmt.Errorf("warmed results carry %v plans, want one equal non-zero count", counts)
		}
	}
	if e.planCount == 0 {
		e.planCount = counts[0]
	}
	return nil
}

// --- the served operation ----------------------------------------------------

// jobView is the part of capserved's job envelope the benchmark reads.
type jobView struct {
	JobID    string          `json:"job_id"`
	State    string          `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// planResult is the part of a plan result the per-response check reads.
type planResult struct {
	Days               int               `json:"days"`
	Seed               int64             `json:"seed"`
	Plans              []json.RawMessage `json:"plans"`
	CurrentServers     int               `json:"current_servers"`
	RecommendedServers int               `json:"recommended_servers"`
	Degraded           bool              `json:"degraded"`
}

// reply is one request's outcome. latency runs from sending the request to
// having read the last response byte; decoding and checking come after it.
type reply struct {
	status    int
	latency   time.Duration
	view      jobView           // Result moved to delivered: samples keep the view for its timestamps
	delivered []byte            // the result as the envelope carried it (indented)
	sum       [sha256.Size]byte // digest of delivered, when the job is done
	result    []byte            // delivered compacted: the bytes the invariant is about (after checkResult)
	parsed    planResult        // after checkResult
	err       error             // non-nil when the request failed or the answer is wrong
}

// bodies recycles response buffers: at a few thousand 40 KB responses per
// second, growing a fresh one each time is a cost of the client's that
// would blur the server's.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// roundTrip sends one request and reads the whole response into buf.
func (e *env) roundTrip(ctx context.Context, method, url string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// envelope sends one request whose answer is a job envelope and decodes it.
// wantDone demands a finished job and digests its result as delivered.
func (e *env) envelope(ctx context.Context, method, url string, body []byte, wantStatus int, wantDone bool) reply {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodies.Put(buf)
	var r reply
	if r.status, r.latency, r.err = e.roundTrip(ctx, method, url, body, buf); r.err != nil {
		return r
	}
	if r.status != wantStatus {
		r.err = fmt.Errorf("HTTP %d, want %d: %s", r.status, wantStatus, clip(buf.Bytes()))
		return r
	}
	if r.err = json.Unmarshal(buf.Bytes(), &r.view); r.err != nil {
		return r
	}
	r.delivered, r.view.Result = r.view.Result, nil
	if wantDone {
		if r.view.State != "done" {
			r.err = fmt.Errorf("job state %q: %s", r.view.State, r.view.Error)
			return r
		}
		r.sum = sha256.Sum256(r.delivered)
	}
	return r
}

// plan posts the shape for seed to base. With wait it blocks until the job
// is done; without, it expects the 202 envelope of a queued job.
func (e *env) plan(ctx context.Context, base string, seed int64, wait bool) reply {
	url, status := base+"/v1/plan", http.StatusAccepted
	if wait {
		url, status = url+"?wait=true", http.StatusOK
	}
	r := e.envelope(ctx, http.MethodPost, url, e.cfg.body(seed), status, wait)
	if r.err != nil {
		r.err = fmt.Errorf("seed %d: %w", seed, r.err)
	}
	return r
}

// job reads a job's status.
func (e *env) job(ctx context.Context, id string) reply {
	return e.envelope(ctx, http.MethodGet, e.base+"/v1/jobs/"+id, nil, http.StatusOK, false)
}

// checkResult verifies a done job's result in full: not degraded, for the
// seed asked, with the shape's plan count and a server total the shape
// allows. planCount 0 skips the count (set-up, before the count is known).
// A warmed key's later hits skip all this: their digest must equal the
// digest of the miss that was checked here.
func (r *reply) checkResult(seed int64, planCount, records int) {
	if r.err != nil {
		return
	}
	var buf bytes.Buffer
	if r.err = json.Compact(&buf, r.delivered); r.err != nil {
		return
	}
	r.result = buf.Bytes()
	if r.err = json.Unmarshal(r.result, &r.parsed); r.err != nil {
		return
	}
	p := r.parsed
	switch {
	case p.Degraded:
		r.err = fmt.Errorf("seed %d: degraded result", seed)
	case p.Seed != seed:
		r.err = fmt.Errorf("asked for seed %d, answer is for seed %d", seed, p.Seed)
	case planCount > 0 && len(p.Plans) != planCount:
		r.err = fmt.Errorf("seed %d: %d plans, the shape has %d", seed, len(p.Plans), planCount)
	case p.CurrentServers <= 0 || p.RecommendedServers <= 0 || p.RecommendedServers > p.CurrentServers:
		r.err = fmt.Errorf("seed %d: servers %d -> %d", seed, p.CurrentServers, p.RecommendedServers)
	case records > 0 && p.Days > 0 && p.CurrentServers > records/p.Days:
		r.err = fmt.Errorf("seed %d: %d current servers, more than the fleet has", seed, p.CurrentServers)
	}
}

// matchOracle compares result with the reference bytes for seed, when set-up
// computed one.
func (e *env) matchOracle(seed int64, result []byte) error {
	want, ok := e.oracles[seed]
	if ok && !bytes.Equal(want, result) {
		return fmt.Errorf("seed %d: result differs from the sequential oracle (%d vs %d bytes)", seed, len(result), len(want))
	}
	return nil
}

func clip(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// --- the CLI operation -------------------------------------------------------

// buildCLI compiles capsim and capplan from the checkout into a fresh temp
// dir that close removes, CSVs included.
func (e *env) buildCLI(ctx context.Context) error {
	tmp, err := os.MkdirTemp("", "capbench-")
	if err != nil {
		return err
	}
	e.tmp = tmp
	e.stops = append(e.stops, func() error { return os.RemoveAll(tmp) })
	cmd := exec.CommandContext(ctx, "go", "build", "-o", tmp+string(os.PathSeparator), "./cmd/capsim", "./cmd/capplan")
	cmd.Dir = e.cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build capsim capplan: %w: %s", err, clip(out))
	}
	e.capsim, e.capplan = filepath.Join(tmp, "capsim"), filepath.Join(tmp, "capplan")
	return nil
}

// cliRun is one capsim → file → capplan iteration.
type cliRun struct {
	capsim, capplan time.Duration
	csvBytes        int64
	records         int
	capsimRSS       float64 // MB
	capplanRSS      float64 // MB
	sum             [sha256.Size]byte
}

// pipe writes the trace for seed with capsim, plans it with capplan, and
// removes the file again. shards is capplan's -shards (0 = its default).
func (e *env) pipe(ctx context.Context, seed int64, shards int) (cliRun, error) {
	var run cliRun
	csv := filepath.Join(e.tmp, "trace.csv")
	defer os.Remove(csv)

	simCmd := exec.CommandContext(ctx, e.capsim, "-days", fmt.Sprint(e.cfg.days), "-pools", e.cfg.cliPool,
		"-seed", fmt.Sprint(seed), "-out", csv)
	var simErr bytes.Buffer
	simCmd.Stderr = &simErr
	start := time.Now()
	if err := simCmd.Run(); err != nil {
		return run, fmt.Errorf("capsim: %w: %s", err, clip(simErr.Bytes()))
	}
	run.capsim = time.Since(start)
	run.capsimRSS = maxRSSMB(simCmd)
	if _, err := fmt.Sscanf(simErr.String(), "capsim: wrote %d records", &run.records); err != nil {
		return run, fmt.Errorf("capsim did not report its record count: %s", clip(simErr.Bytes()))
	}
	st, err := os.Stat(csv)
	if err != nil {
		return run, err
	}
	run.csvBytes = st.Size()

	planCmd := exec.CommandContext(ctx, e.capplan, "-in", csv, "-budget", "5", "-shards", fmt.Sprint(shards))
	var planOut, planErr bytes.Buffer
	planCmd.Stdout, planCmd.Stderr = &planOut, &planErr
	start = time.Now()
	if err := planCmd.Run(); err != nil {
		return run, fmt.Errorf("capplan: %w: %s", err, clip(planErr.Bytes()))
	}
	run.capplan = time.Since(start)
	run.capplanRSS = maxRSSMB(planCmd)
	if !bytes.Contains(planOut.Bytes(), []byte("total: ")) {
		return run, fmt.Errorf("capplan printed no plan: %s", clip(planOut.Bytes()))
	}
	run.sum = sha256.Sum256(planOut.Bytes())
	return run, nil
}

// maxRSSMB is the peak resident set of a finished child, in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) * 1024 / mb
	}
	return 0
}

// selfRSSMB is this process's peak resident set so far, in MB.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb
}
