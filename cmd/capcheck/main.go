// Command capcheck replays differential verification cases outside the test
// harness. Its main job is triage: when TestDifferentialPaths or
// FuzzDifferential reports a diverging seed,
//
//	capcheck -seed 1234 -v
//
// reruns exactly that case through all four execution paths and prints the
// first diverging JSON field. Without -seed it sweeps a seed range, which is
// useful for soak runs longer than the test suite's default:
//
//	capcheck -start 1 -n 1000
//
// It ends with a table of each path's outcomes over the sweep: checked,
// skipped on purpose (a resubmission after a one-shot fault) and failed.
// Exit status is 1 if any case diverged (or leaked goroutines), 0 otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"headroom/internal/diffcheck"
)

func main() {
	seed := flag.Int64("seed", 0, "replay exactly this generator seed (overrides -start/-n)")
	start := flag.Int64("start", 1, "first seed of the sweep")
	n := flag.Int("n", 25, "number of consecutive seeds to sweep")
	verbose := flag.Bool("v", false, "print every case and each path's outcome, not just divergences")
	flag.Parse()

	seeds := make([]int64, 0, *n)
	if *seed != 0 {
		seeds = append(seeds, *seed)
	} else {
		for i := 0; i < *n; i++ {
			seeds = append(seeds, *start+int64(i))
		}
	}

	ctx := context.Background()
	diverged := 0
	var tally []pathTally
	for _, s := range seeds {
		c := diffcheck.Generate(s)
		if *verbose {
			fmt.Printf("case %s\n", c)
		}
		rep, err := diffcheck.RunCase(ctx, c, diffcheck.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "capcheck: case %s\n  harness error: %v\n", c, err)
			os.Exit(2)
		}
		for i, p := range rep.Paths {
			if i == len(tally) {
				// One row per path, whatever its shard count: "sharded(3)"
				// and "sharded(2)" are both "sharded".
				name, _, _ := strings.Cut(p.Name, "(")
				tally = append(tally, pathTally{name: name})
			}
			tally[i].add(p)
			if *verbose {
				fmt.Printf("  %-13s %s\n", p.Name, p.Status())
			}
		}
		if rep.Diff != "" {
			diverged++
			fmt.Fprintf(os.Stderr, "DIVERGED case %s\n  %s\n", c, rep.Diff)
		}
	}
	fmt.Printf("%-13s %8s %8s %8s\n", "path", "checked", "skipped", "failed")
	for _, t := range tally {
		fmt.Printf("%-13s %8d %8d %8d\n", t.name, t.checked, t.skipped, t.failed)
	}
	if diverged > 0 {
		fmt.Fprintf(os.Stderr, "capcheck: %d of %d cases diverged\n", diverged, len(seeds))
		os.Exit(1)
	}
	fmt.Printf("capcheck: %d cases, all paths agreed\n", len(seeds))
}

// pathTally counts one path's outcomes over the sweep: checked (it ran and
// returned a result, degraded or not), skipped on purpose, or failed. A
// failure is not a divergence by itself: a single-stream sequential run is
// meant to fail under a fault.
type pathTally struct {
	name                     string
	checked, skipped, failed int
}

func (t *pathTally) add(p diffcheck.PathResult) {
	switch {
	case p.Skipped != "":
		t.skipped++
	case p.Err != "":
		t.failed++
	default:
		t.checked++
	}
}
