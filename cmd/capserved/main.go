// Command capserved is the long-running capacity-planning service: it
// exposes the pipeline the one-shot CLIs (capsim, capplan) drive — fleet
// simulation, planning, offline A/B validation and workload forecasting —
// as an HTTP/JSON job API with a bounded worker pool and a keyed result
// cache, so operators can submit what-if plans against a shared deployment
// and identical queries cost one simulation.
//
// Usage:
//
//	capserved -addr :8080
//	capserved -addr :8080 -workers 8 -cache 256 -job-timeout 10m
//	capserved -addr :8080 -dist-token s3cret \
//	    -peers http://10.0.0.2:8080,http://10.0.0.3:8080
//
// With -peers, simulate/plan jobs are split into shards and dispatched to
// the named workers (each a capserved started with the same -dist-token),
// merged back byte-identical to a single-node run; see the README's
// "Scale-out" section.
//
// Endpoints: POST /v1/{simulate,plan,validate,forecast}, GET /v1/jobs/{id},
// GET /healthz, GET /readyz, GET /metrics (Prometheus text format). See the
// README's "Running the server" and "Failure semantics" sections for request
// examples and degraded-mode behaviour.
//
// SIGTERM or SIGINT drains gracefully: the listener closes, in-flight
// requests and queued jobs finish (bounded by -drain-timeout), then the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"headroom/internal/obs"
	"headroom/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "capserved:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled and the drain
// completes. When ready is non-nil it receives the bound address once the
// listener is up (used by the e2e test to learn the ephemeral port).
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("capserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		workers      = fs.Int("workers", 0, "job worker-pool size (0 = one per CPU)")
		queueDepth   = fs.Int("queue", 0, "pending job queue depth (0 = 4x workers)")
		cacheSize    = fs.Int("cache", 128, "result cache capacity (number of results)")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "per-job deadline")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown window")
		shards       = fs.Int("shards", 0, "aggregation shards per job (0 = one per CPU)")

		peers      = fs.String("peers", "", "comma-separated worker base URLs enabling distributed scale-out (e.g. http://10.0.0.2:8080,http://10.0.0.3:8080)")
		distToken  = fs.String("dist-token", "", "shared secret for internal shard traffic; required with -peers, and serves POST /v1/internal/shard when set")
		hedgeAfter = fs.Duration("hedge-after", 0, "hedge a shard dispatch still unanswered after this delay (0 = adaptive 2x worker EWMA, negative = disabled)")

		partial       = fs.Bool("partial-results", false, "serve degraded results when some pools fail instead of failing the whole job")
		retryAttempts = fs.Int("source-retries", 0, "max source stream attempts per shard (0 = no retry layer: a failed stream fails its shard; N = up to N attempts)")
		retryBackoff  = fs.Duration("source-retry-backoff", 0, "initial backoff between source retries (0 = default 50ms)")

		logFormat = fs.String("log-format", "text", "log output format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		debugAddr = fs.String("debug-addr", "", "optional second listener serving /debug/pprof, /debug/traces and /debug/goroutines")
		traceRing = fs.Int("trace-ring", 128, "recent traces retained for /debug/traces")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h asked for the usage, which Parse printed
		}
		return err
	}
	fail := func(format string, v ...any) error {
		fmt.Fprintf(fs.Output(), format+"\n\n", v...)
		fs.Usage()
		return fmt.Errorf(format, v...)
	}
	if *workers < 0 {
		return fail("workers must be >= 0, got %d", *workers)
	}
	if *queueDepth < 0 {
		return fail("queue must be >= 0, got %d", *queueDepth)
	}
	if *cacheSize < 1 {
		return fail("cache must be >= 1, got %d", *cacheSize)
	}
	if *jobTimeout <= 0 {
		return fail("job-timeout must be positive, got %s", *jobTimeout)
	}
	if *drainTimeout <= 0 {
		return fail("drain-timeout must be positive, got %s", *drainTimeout)
	}
	if *shards < 0 {
		return fail("shards must be >= 0, got %d", *shards)
	}
	if *retryAttempts < 0 {
		return fail("source-retries must be >= 0, got %d", *retryAttempts)
	}
	if *retryBackoff < 0 {
		return fail("source-retry-backoff must be >= 0, got %s", *retryBackoff)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) > 0 && *distToken == "" {
		return fail("-peers requires -dist-token (the shared secret workers authenticate with)")
	}
	if !obs.ValidFormat(*logFormat) {
		return fail("log-format must be text or json, got %q", *logFormat)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return fail("%v", err)
	}
	if *traceRing < 1 {
		return fail("trace-ring must be >= 1, got %d", *traceRing)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)
	tracer := obs.NewTracer(*traceRing)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", *addr, err)
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	// The optional debug listener carries the profiling and tracing surface
	// on a separate port so it can stay firewalled off from the API.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("listen on debug addr %s: %w", *debugAddr, err)
		}
		dsrv := &http.Server{Handler: server.DebugMux(tracer), ReadHeaderTimeout: 10 * time.Second}
		go dsrv.Serve(dln)
		defer dsrv.Close()
		logger.Info("debug listening", "addr", dln.Addr().String())
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheSize:      *cacheSize,
		JobTimeout:     *jobTimeout,
		DrainTimeout:   *drainTimeout,
		Shards:         *shards,
		Peers:          peerList,
		DistToken:      *distToken,
		HedgeAfter:     *hedgeAfter,
		PartialResults: *partial,
		RetryAttempts:  *retryAttempts,
		RetryBackoff:   *retryBackoff,
		Logger:         logger,
		Tracer:         tracer,
	})
	return srv.Serve(ctx, ln)
}
