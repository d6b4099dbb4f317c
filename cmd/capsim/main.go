// Command capsim simulates the paper-shaped global service fleet and writes
// its 120-second observation windows as a trace (CSV or JSON Lines), the
// input of cmd/capplan.
//
// Usage:
//
//	capsim -days 1 -seed 1 -format csv -out fleet.csv
//	capsim -days 2 -pools B,D -format jsonl -out bd.jsonl
//	capsim -days 1 -pools B | capplan -in - -budget 5
//
// Interrupting the process (Ctrl-C) cancels the simulation mid-stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"headroom"
	"headroom/internal/obs"
	"headroom/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	var (
		days     = fs.Int("days", 1, "days to simulate")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		format   = fs.String("format", "csv", "output format: csv or jsonl")
		out      = fs.String("out", "", "output file (default stdout)")
		pools    = fs.String("pools", "", "comma-separated pool names to keep (default: all)")
		traceOut = fs.String("trace-out", "", "write a Chrome trace_event JSON of the run (load at chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h asked for the usage, which Parse printed
		}
		return err
	}
	// Invalid flag values print usage and exit non-zero instead of
	// proceeding with a garbage configuration.
	fail := func(format string, v ...any) error {
		fmt.Fprintf(fs.Output(), format+"\n\n", v...)
		fs.Usage()
		return fmt.Errorf(format, v...)
	}
	if *days <= 0 {
		return fail("days must be positive, got %d", *days)
	}
	if *format != "csv" && *format != "jsonl" {
		return fail("unknown format %q (want csv or jsonl)", *format)
	}

	cfg := headroom.DefaultFleet(*seed)
	if *pools != "" {
		var err error
		if cfg, err = headroom.FilterPools(cfg, strings.Split(*pools, ",")); err != nil {
			return err
		}
	}

	w, closeOut := stdout, func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		// For the error paths; the success path checks Close below, where a
		// failed write-back (full disk, NFS) surfaces.
		defer f.Close()
		w, closeOut = f, f.Close
	}

	var write func([]trace.Record) error
	var flush func() error
	var cw *trace.CSVWriter
	switch *format {
	case "csv":
		cw = trace.NewCSVWriter(w)
		write, flush = cw.WriteRun, cw.Flush
	case "jsonl":
		jw := trace.NewJSONLWriter(w)
		write, flush = trace.EachRecord(jw.Write), jw.Flush
	default:
		return fmt.Errorf("unknown format %q (want csv or jsonl)", *format)
	}

	if *traceOut != "" {
		var finish func() error
		ctx, finish = obs.FileTrace(ctx, "capsim", *traceOut)
		defer func() {
			if err := finish(); err != nil {
				fmt.Fprintln(os.Stderr, "capsim:", err)
			}
		}()
	}

	s, err := headroom.New(ctx, headroom.WithSource(headroom.NewSimSource(cfg, *days)))
	if err != nil {
		return err
	}
	var n int
	sctx, st := obs.StartStage(ctx, "capsim.stream", nil, obs.Int("days", *days))
	_, enc := obs.StartStage(sctx, "trace.encode", nil, obs.Str("format", *format))
	err = s.Stream(sctx, nil, func(run []headroom.Record) error {
		n += len(run)
		return write(run)
	})
	// Flush after a failed stream too: it is what stops the CSV writer's
	// goroutines.
	if ferr := flush(); err == nil {
		err = ferr
	}
	attrs := []obs.Attr{obs.Int("records", n)}
	if cw != nil {
		attrs = append(attrs, obs.Int64("bytes", cw.Bytes), obs.Int("chunks", cw.Chunks))
	}
	enc.End(err, attrs...)
	st.End(err, obs.Int("records", n))
	if err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return fmt.Errorf("close output: %w", err)
	}
	fmt.Fprintf(os.Stderr, "capsim: wrote %d records (%d pools, %d days, seed %d)\n",
		n, len(cfg.Pools), *days, *seed)
	return nil
}
