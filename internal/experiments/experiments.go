// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated fleet: Tables II-IV and Figures 2-16. Each
// experiment produces a Result containing the same rows/series the paper
// reports plus headline scalar metrics that EXPERIMENTS.md compares against
// the published values.
//
// Experiments are registered in Registry and addressable by ID ("table2",
// "fig9", ...); cmd/experiments and the root bench harness drive them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/trace"
)

// Config controls experiment execution.
type Config struct {
	// Seed drives all stochastic components.
	Seed int64
	// Fast shrinks observation horizons (for tests); the default runs the
	// durations the figures call for.
	Fast bool
}

// Result is a regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Header and Rows are the printable artifact (the figure's series or
	// the table's rows).
	Header []string
	Rows   [][]string
	// Metrics are the headline scalars compared against the paper.
	Metrics map[string]float64
	// Notes document deviations and context.
	Notes []string
}

// Metric records a headline scalar.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Render writes the result as an aligned text table plus metrics.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if len(r.Header) > 0 {
		if err := writeRow(r.Header); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "metric %-40s %.4g\n", k, r.Metrics[k]); err != nil {
				return err
			}
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one registered table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context, Config) (*Result, error)
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"fig2", "Resource counters vs workload (micro-service D, 6 DCs, 1 day)", Fig2},
	{"fig3", "p5 vs p95 CPU scatter, pool I (two hardware generations)", Fig3},
	{"fig4", "Pool workload time series around the unplanned event", Fig4},
	{"fig5", "CPU vs RPS spanning the unplanned event (linear model holds)", Fig5},
	{"fig6", "Latency vs workload, 5 DCs, one at 4x load", Fig6},
	{"fig7", "RSM iterations: latency rises to the 14 ms QoS limit", Fig7},
	{"fig8", "Pool B %CPU vs workload/server, both stages + linear fit", Fig8},
	{"fig9", "Pool B p95 latency vs workload/server + quadratic forecast", Fig9},
	{"fig10", "Pool D %CPU vs workload/server + linear fit", Fig10},
	{"fig11", "Pool D p95 latency vs workload/server + quadratic forecast", Fig11},
	{"fig12", "CDF of per-server p95 CPU over a day", Fig12},
	{"fig13", "Distribution of 120 s CPU samples over a day", Fig13},
	{"fig14", "Distribution of daily server availability", Fig14},
	{"fig15", "Daily pool availability, pools C/D/H, 14 days", Fig15},
	{"fig16", "Offline A/B regression: memory-leak fix with latency bug", Fig16},
	{"table2", "Pool B RPS/server percentiles, original vs 30% reduction", Table2},
	{"table3", "Pool D RPS/server percentiles, original vs 10% reduction", Table3},
	{"table4", "Savings summary for the seven largest pools", Table4},
	{"grouping-tree", "Decision-tree pool classification (paper: 34 splits, AUC 0.9804)", GroupingTree},
	{"ablation-ransac", "Ablation: RANSAC vs OLS under contaminated experiments", AblationRANSAC},
	{"ablation-degree", "Ablation: extrapolation accuracy by polynomial degree", AblationDegree},
	{"ablation-partitions", "Ablation: load-partition count sensitivity", AblationPartitions},
	{"ablation-planners", "Ablation: black-box plan vs M/M/c vs reactive autoscaler", AblationPlanners},
}

// ByID returns the registered experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// fleetKey caches whole-fleet aggregations, which several figures share.
type fleetKey struct {
	seed int64
	days int
}

var (
	fleetMu    sync.Mutex
	fleetCache = map[fleetKey]*metrics.Aggregator{}
)

// fleetAggregator simulates the default fleet for the given days and
// aggregates it, caching per (seed, days) because Figures 12-14 share the
// same fleet-day. The lock covers only the cache map, never the simulation,
// so concurrent experiments stay cancellable; two concurrent misses both
// simulate, deterministically producing the same aggregate (last one wins
// the cache slot).
func fleetAggregator(ctx context.Context, seed int64, days int) (*metrics.Aggregator, error) {
	key := fleetKey{seed: seed, days: days}
	fleetMu.Lock()
	agg, ok := fleetCache[key]
	fleetMu.Unlock()
	if ok {
		return agg, nil
	}
	agg, err := aggregateFleet(ctx, sim.DefaultFleet(seed), days*720)
	if err != nil {
		return nil, err
	}
	fleetMu.Lock()
	fleetCache[key] = agg
	fleetMu.Unlock()
	return agg, nil
}

// aggregateFleet simulates cfg for ticks windows, applying actions at their
// scheduled ticks, and aggregates every record: the one simulate-and-ingest
// loop of the package.
func aggregateFleet(ctx context.Context, cfg sim.FleetConfig, ticks int, actions ...sim.Action) (*metrics.Aggregator, error) {
	s, err := sim.New(cfg, actions...)
	if err != nil {
		return nil, err
	}
	agg := metrics.NewAggregator()
	if err := s.RunSteps(ctx, ticks, func(step []trace.Record) error { agg.AddAll(step); return nil }); err != nil {
		return nil, err
	}
	return agg, nil
}

// poolAggregator simulates a single-pool fleet (cheaper than the whole
// default fleet) with optional actions, returning the aggregator.
func poolAggregator(ctx context.Context, pool sim.PoolConfig, seed int64, ticks int, actions ...sim.Action) (*metrics.Aggregator, error) {
	return aggregateFleet(ctx, sim.FleetConfig{
		DCs:               nineRegions(),
		Pools:             []sim.PoolConfig{pool},
		WorkloadNoiseFrac: 0.03,
		Seed:              seed,
	}, ticks, actions...)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func g4(v float64) string { return fmt.Sprintf("%.4g", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.0f%%", 100*v)
}
