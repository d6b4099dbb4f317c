// Command capplan runs the black-box capacity-planning methodology over a
// fleet trace produced by cmd/capsim: it validates workload metrics
// (refining contaminated ones), groups servers, fits the workload→QoS
// models, and prints the right-sized server count per pool per datacenter.
//
// Usage:
//
//	capsim -days 2 -pools B,D -out bd.csv
//	capplan -in bd.csv -budget 5
//	capsim -days 2 -pools B,D | capplan -in - -budget 5
//
// The trace is decoded as it streams (CSV or JSON Lines, told from its first
// byte) through the same Source interface the simulator streams through, so
// the planner is agnostic to where records came from and holds a few chunks
// of the trace, never the whole file.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"headroom"
	"headroom/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capplan:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("capplan", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input trace file, or - for stdin (csv or jsonl, told from the first non-blank byte)")
		budget   = fs.Float64("budget", 5, "acceptable latency increase in ms")
		seed     = fs.Int64("seed", 1, "seed for clustering and robust fits")
		shards   = fs.Int("shards", 0, "accepted and ignored: a trace is decoded in parallel and aggregated in one ordered pass")
		traceOut = fs.String("trace-out", "", "write a Chrome trace_event JSON of the run (load at chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Invalid flag values print usage and exit non-zero instead of
	// proceeding with a garbage configuration.
	fail := func(format string, v ...any) error {
		fmt.Fprintf(fs.Output(), format+"\n\n", v...)
		fs.Usage()
		return fmt.Errorf(format, v...)
	}
	if *in == "" {
		return fail("missing -in trace file")
	}
	if *budget <= 0 {
		return fail("budget must be positive milliseconds, got %v", *budget)
	}
	if *shards < 0 {
		return fail("shards must be >= 0, got %d", *shards)
	}
	input := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		input = f
	}

	if *traceOut != "" {
		var finish func() error
		ctx, finish = obs.FileTrace(ctx, "capplan", *traceOut)
		defer func() {
			if err := finish(); err != nil {
				fmt.Fprintln(os.Stderr, "capplan:", err)
			}
		}()
	}

	s, err := headroom.New(ctx,
		headroom.WithSource(headroom.NewTraceSource(input)),
		headroom.WithPlanConfig(headroom.PlanConfig{LatencyBudgetMs: *budget, Seed: *seed}),
	)
	if err != nil {
		return err
	}
	agg, err := s.Aggregate(ctx, nil)
	if err != nil {
		return fmt.Errorf("read trace: %w", err)
	}
	if len(agg.Pools()) == 0 {
		return fmt.Errorf("trace %q is empty", *in)
	}
	plans, err := s.Plan(ctx, agg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-6s %-6s %-7s %-8s %-8s %-9s %-10s %-10s %s\n",
		"pool", "dc", "groups", "current", "target", "savings", "base_ms", "fcst_ms", "status")
	var totalCur, totalNew int
	for _, p := range plans {
		status := "ok"
		if p.Refined {
			status = "ok (metric refined)"
		}
		if !p.Plannable {
			fmt.Fprintf(out, "%-6s %-6s %-7s %-8s %-8s %-9s %-10s %-10s %s\n",
				p.Pool, p.DC, "-", "-", "-", "-", "-", "-", "skipped: "+p.Reason)
			continue
		}
		totalCur += p.CurrentServers
		totalNew += p.RecommendedServers
		fmt.Fprintf(out, "%-6s %-6s %-7d %-8d %-8d %-9s %-10.1f %-10.1f %s\n",
			p.Pool, p.DC, p.Groups, p.CurrentServers, p.RecommendedServers,
			fmt.Sprintf("%.0f%%", 100*p.SavingsFrac), p.BaselineLatencyMs, p.ForecastLatencyMs, status)
	}
	if totalCur > 0 {
		fmt.Fprintf(out, "\ntotal: %d -> %d servers (%.0f%% savings) within a %.1f ms latency budget\n",
			totalCur, totalNew, 100*(1-float64(totalNew)/float64(totalCur)), *budget)
	}
	return nil
}
