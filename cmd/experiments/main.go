// Command experiments regenerates the paper's evaluation artifacts — every
// table and figure plus the ablations — from the simulated fleet, printing
// the same rows/series the paper reports.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run all -fast
//
// Interrupting the process (Ctrl-C) cancels the in-flight experiment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"headroom"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		id   = fs.String("run", "all", "experiment ID to run, or 'all'")
		seed = fs.Int64("seed", 1, "deterministic seed")
		fast = fs.Bool("fast", false, "shorten observation horizons")
		list = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h asked for the usage, which Parse printed
		}
		return err
	}
	if *list {
		for _, e := range headroom.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}
	s, err := headroom.New(ctx, headroom.WithSeed(*seed))
	if err != nil {
		return err
	}
	if *id != "all" {
		res, err := s.RunExperiment(ctx, *id, *fast)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	}
	for _, e := range headroom.Experiments() {
		res, err := s.RunExperiment(ctx, e.ID, *fast)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
