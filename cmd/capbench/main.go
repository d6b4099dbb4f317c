// capbench is the repository's benchmark: five workloads against a real
// in-process capserved on a loopback TCP listener (and the built capsim and
// capplan binaries), every answer checked against the byte-identical
// invariant, end-to-end metrics with tracing off and a per-layer table with
// it on. README.md in this directory defines every workload and metric;
// BENCHMARK.json at the root of the repository is the contract it meets.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	capbench -workload cold_plan -seed 1 -seconds 15 -trace 0
//
// prints `workload metric value unit` lines and, as the last line, one JSON
// object {correct, attempted, failed, metrics}. Without -workload it runs
// all five, each both ways, each in a fresh process; -aa K runs every
// workload K times and checks the spreads against BENCHMARK.json's bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a result has been printed in full but
// holds failed operations: the command must still exit non-zero.
var errIncorrect = errors.New("operations failed or answers were wrong; see the notes above")

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	aa       int
	smoke    bool
	box      bool
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload (default: all five, each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input is derived from it")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured window per run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	fs.StringVar(&o.out, "out", "", "also write the results, with sample counts and quartiles, to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1 and -workload: write the spans as Chrome trace_event JSON")
	fs.IntVar(&o.aa, "aa", 0, "A/A check: run every workload this many times (seeds seed, seed+1, ...) and hold the spreads against BENCHMARK.json's bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "small profile for tests and CI: one small pool, 0.3 s warm-up, one set-up, one replay seed")
	fs.BoolVar(&o.box, "box", false, "only serve readings of the box's speed, one (big and small kernel time, ms) per line read from standard input; every end-to-end run starts one of these as a child")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.box {
		return serveBox(os.Stdin, os.Stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seed < 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.aa < 0 {
		return fmt.Errorf("need -seed >= 0, -seconds > 0, -trace 0 or 1, -aa >= 0")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	switch {
	case o.aa > 0:
		return runAA(ctx, o, root)
	case o.workload == "":
		return runSuite(ctx, o, root)
	}

	w, ok := workloadNamed(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := o.config(root)
	var res *result
	if o.trace == 1 {
		res, err = runTraced(ctx, w, cfg)
	} else {
		res, err = runEndToEnd(ctx, w, cfg)
	}
	if err != nil {
		return err
	}
	if o.traceOut != "" && o.trace == 1 {
		raw, err := chromeTrace(res.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, raw, 0o644); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	res.print(os.Stdout)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// config is the full profile — the request shape every later issue cites —
// or the smoke profile.
func (o options) config(root string) config {
	cfg := config{
		seed: o.seed, root: root,
		measure: time.Duration(o.seconds * float64(time.Second)),
		warmup:  2 * time.Second, setups: 3, replaySeeds: 3,
		pools: []string{"A", "B", "D", "H"}, cliPool: "B", days: 1,
	}
	if o.smoke {
		cfg.warmup, cfg.setups, cfg.replaySeeds = 300*time.Millisecond, 1, 1
		cfg.pools, cfg.cliPool = []string{"G"}, "G" // 100 servers: a fifth of pool B
	}
	return cfg
}

// findRoot locates the checkout root — the directory holding cmd/capsim —
// from the working directory: the root itself (run.sh) or cmd/capbench
// (go run -C, go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", filepath.Join("..", "..")} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "capsim", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the root of a checkout of the repository (cmd/capsim not found)")
}

// print writes the human-readable lines and, last, the contract's JSON
// object.
func (r *result) print(f io.Writer) {
	line := func(name string, m metric) { fmt.Fprintf(f, "%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit) }
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		line(d.Name, r.Metrics[d.Name])
	}
	for _, name := range sortedKeys(r.Extra) {
		line(name, r.Extra[name])
	}
	for _, name := range sortedKeys(r.Timings) {
		t := r.Timings[name]
		fmt.Fprintf(f, "%s %s n=%d q1=%.6g p50=%.6g q3=%.6g p90=%.6g p%g=%.6g\n",
			r.Workload, name, t.N, t.Q1, t.P50, t.Q3, t.P90, t.TailPct, t.Tail)
	}
	if len(r.SelfTime) > 0 {
		fmt.Fprintf(f, "%s self-time table (span, count, total ms, self ms):\n", r.Workload)
		for _, row := range r.SelfTime {
			fmt.Fprintf(f, "  %-28s %6d %12.3f %12.3f\n", row.Name, row.Count, row.TotalMs, row.SelfMs)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(f, "%s note: %s\n", r.Workload, n)
	}
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(f, "%s\n", last)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// child runs one workload in a fresh process of this same binary — as the
// benchmark's driver does — and returns its detailed result. A fresh
// process per run is what keeps one workload's heap, goroutines and peak
// RSS out of the next one's numbers.
func child(ctx context.Context, o options, workload string, seed int64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "capbench-result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-out", tmp.Name()}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if trace == 1 && o.traceOut != "" {
		ext := filepath.Ext(o.traceOut)
		args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"."+workload+ext)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(tmp.Name())
	if err != nil || len(raw) == 0 {
		return nil, fmt.Errorf("%s (seed %d, trace %d) produced no result: %v", workload, seed, trace, runErr)
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// benchFile is what -out writes for a full run: where and on what the
// numbers were measured, then every run.
type benchFile struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Note       string    `json:"note"`
	Runs       []*result `json:"runs"`
}

// runSuite runs all five workloads, untraced then traced.
func runSuite(ctx context.Context, o options, root string) error {
	file := benchFile{
		Commit: commitOf(root), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds,
		Note: "client and server share one process on the served workloads: alloc_mb_per_op and peak_rss_mb cover both",
	}
	incorrect := false
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(ctx, o, w.name, o.seed, trace)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			incorrect = incorrect || !res.Correct
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, file); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// commitOf names the commit of the checkout, when it is a git repository
// (the benchmark's driver runs in one that is not).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// bounds reads the end-to-end metrics' regression bounds from
// BENCHMARK.json, the one place they are written down.
func bounds(root string) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range file.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// runAA runs every workload o.aa times on this one build, seeds o.seed,
// o.seed+1, ..., going through the workloads forwards and backwards by
// turns, and reports each end-to-end metric's median, quartiles and spread
// (interquartile distance over median, quartiles as Python's
// statistics.quantiles gives them). It fails when a spread exceeds the
// metric's bound; setup_s is reported but, as in the acceptance rule, not
// held to it.
func runAA(ctx context.Context, o options, root string) error {
	bound, err := bounds(root)
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < o.aa; i++ {
		order := append([]workload(nil), workloads...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			if o.workload != "" && o.workload != w.name {
				continue
			}
			res, err := child(ctx, o, w.name, o.seed+int64(i), 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %w", w.name, o.seed+int64(i), errIncorrect)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Q1       float64   `json:"q1"`
		Median   float64   `json:"median"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
	}
	var rows []row
	var over []string
	fmt.Printf("\nA/A over %d runs per workload: workload metric median [q1 q3] spread bound\n", o.aa)
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name][d.Name]
			if len(vs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			r := row{w.name, d.Name, vs, q1, med, q3, spread(vs), bound[d.Name]}
			rows = append(rows, r)
			mark := ""
			if r.Spread > r.Bound && d.Name != "setup_s" {
				mark = "  <-- over its bound"
				over = append(over, w.name+" "+d.Name)
			}
			fmt.Printf("%-11s %-12s %12.6g [%.6g %.6g] %.4f %.2f%s\n", w.name, d.Name, med, q1, q3, r.Spread, r.Bound, mark)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rows); err != nil {
			return err
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A spread over the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
