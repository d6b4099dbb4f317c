// Benchmark harness: one benchmark per paper table and figure (plus the
// ablations), each regenerating the artifact end to end from the simulator,
// and micro-benchmarks for the hot substrate paths.
//
// Run everything once with:
//
//	go test -bench . -benchmem -benchtime 1x
package headroom_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"headroom"
	"headroom/internal/cluster"
	"headroom/internal/experiments"
	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// benchExperiment runs a registered experiment per iteration and reports a
// selected headline metric.
func benchExperiment(b *testing.B, id, metric string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatalf("ByID(%s): %v", id, err)
	}
	cfg := experiments.Config{Seed: 1, Fast: true}
	ctx := context.Background()
	b.ResetTimer()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = exp.Run(ctx, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if metric != "" {
		if v, ok := res.Metrics[metric]; ok {
			// Benchmark units must be whitespace-free; drop the paper
			// annotation suffix.
			unit := metric
			if i := strings.IndexByte(unit, ' '); i >= 0 {
				unit = unit[:i]
			}
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkFig2(b *testing.B)  { benchExperiment(b, "fig2", "cpu_linear_dcs (paper: all)") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3", "groups_found (paper: 2 clusters)") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4", "median_surge_frac (paper 0.56)") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5", "max_latency_ms (paper <26)") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6", "dc5_peak_rps_ratio (paper ~4x)") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7", "savings_frac") }
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8", "orig_slope") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9", "forecast_abs_error_ms") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", "orig_slope") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11", "forecast_abs_error_ms") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12", "frac_p95_le_15 (paper ~0.60)") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13", "frac_above_25 (paper 0.01)") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14", "mean_availability (paper 0.83)") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15", "mean_C (paper ~0.90)") }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16", "latency_regression_detected") }

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", "p95_change_frac") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", "p95_change_frac") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4", "total_savings (paper 0.30)") }

func BenchmarkAblationRANSAC(b *testing.B) {
	benchExperiment(b, "ablation-ransac", "ransac_worst_err_ms")
}
func BenchmarkAblationDegree(b *testing.B) { benchExperiment(b, "ablation-degree", "deg2_err_ms") }
func BenchmarkAblationPartitions(b *testing.B) {
	benchExperiment(b, "ablation-partitions", "J4_err_ms")
}
func BenchmarkAblationPlanners(b *testing.B) {
	benchExperiment(b, "ablation-planners", "reactive_violations")
}

// BenchmarkSimulatorThroughput measures raw record generation of the full
// default fleet (records per op: one fleet-hour) through the per-record
// adapter: the in-place step fill a simulated source streams as runs (what
// capsim writes out), plus one record copy per emit. Steps allocate nothing once the buffer has grown.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := sim.DefaultFleet(1)
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.RunContext(context.Background(), 30, func(r trace.Record) error { // one hour of windows
			sink += r.CPUPct
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "records/op")
	}
	_ = sink
}

// benchSimulate aggregates half a day of the default fleet (2.4 M records)
// through Session.Simulate at the given shard count (0 = one per CPU): the
// simulator writing each shard into its aggregator by server index
// (IngestShard). What is left of B/op is mostly the CPU samples the
// aggregator keeps (2.4 M float64s, ~19 MB, in one block per pool and
// datacenter sized to the horizon).
func benchSimulate(b *testing.B, shards int) {
	b.Helper()
	ctx := context.Background()
	cfg := sim.DefaultFleet(1)
	cfg.Tick = 2 * workload.TickDuration // half a day of windows per op
	s, err := headroom.New(ctx, headroom.WithFleet(cfg), headroom.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := s.Simulate(ctx, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(agg.Pools())), "poolDCs/op")
	}
}

// BenchmarkSimulateSequential is the single-threaded simulate+aggregate
// baseline.
func BenchmarkSimulateSequential(b *testing.B) { benchSimulate(b, 1) }

// BenchmarkSimulateSharded runs the same fleet sharded per pool across all
// CPUs; the aggregate is bit-identical to the sequential pass (see
// TestSessionShardedIdentical).
func BenchmarkSimulateSharded(b *testing.B) { benchSimulate(b, 0) }

// BenchmarkPlanPipeline measures the full Steps 1-2 pipeline over a day of
// pool B observations.
func BenchmarkPlanPipeline(b *testing.B) {
	ctx := context.Background()
	s, err := headroom.New(ctx,
		headroom.WithFleet(headroom.FleetConfig{
			DCs:   headroom.NineRegions(),
			Pools: []headroom.PoolConfig{headroom.PoolB()},
			Seed:  1,
		}),
		headroom.WithPlanConfig(headroom.PlanConfig{Seed: 2}),
	)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := s.Simulate(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(ctx, agg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFleetSharded is one cold plan request's compute as capserved
// runs it: the benchmark's fleet (A/B/D/H, one day) dealt over two shards,
// each ingested and planned where its records are (SimulateRows), the rows
// combined in (pool, datacenter) order. Reports ms/op beside B/op.
func BenchmarkPlanFleetSharded(b *testing.B) {
	ctx := context.Background()
	fleet, err := headroom.FilterPools(headroom.DefaultFleet(1), []string{"A", "B", "D", "H"})
	if err != nil {
		b.Fatal(err)
	}
	s, err := headroom.New(ctx, headroom.WithSource(headroom.NewSimSource(fleet, 1)),
		headroom.WithShards(2), headroom.WithPlanConfig(headroom.PlanConfig{LatencyBudgetMs: 5, Seed: 2}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := headroom.SimulateRows(ctx, s, planShard(s),
			func(p headroom.PoolPlan) (string, string) { return p.Pool, p.DC })
		if err != nil || len(rows) != 12 {
			b.Fatalf("%d rows, err %v", len(rows), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
}

// BenchmarkIngestShard is ingest on its own, one A/B/D/H day (as in
// capbench's cold_plan) two ways, in ns/record and B/op: "sim" is
// IngestShard of a simulated source, which the simulator feeds by server
// index (generation included: the records are never built), and "addall"
// is AddAll over the same day's records, collected beforehand (the record
// path capplan takes).
func BenchmarkIngestShard(b *testing.B) {
	ctx := context.Background()
	fleet, err := headroom.FilterPools(headroom.DefaultFleet(1), []string{"A", "B", "D", "H"})
	if err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B, records int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("sim", func(b *testing.B) {
		src := headroom.NewSimSource(fleet, 1)
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			if _, n, err = headroom.IngestShard(ctx, src, 0, 1); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b, int(n))
	})
	b.Run("addall", func(b *testing.B) {
		s, err := sim.New(fleet)
		if err != nil {
			b.Fatal(err)
		}
		recs, err := s.RunCollect(s.TicksPerDay())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			metrics.NewAggregator().AddAll(recs)
		}
		perRecord(b, len(recs))
	})
}

func BenchmarkPolyFitQuadratic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1221) // the paper's N for the pool B fit
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = 150 + 400*rng.Float64()
		ys[i] = 4.028e-5*xs[i]*xs[i] - 0.031*xs[i] + 36.68 + 0.4*rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.PolyFit(xs, ys, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRANSACQuadratic(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 600)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = 150 + 400*rng.Float64()
		ys[i] = 4.028e-5*xs[i]*xs[i] - 0.031*xs[i] + 36.68 + 0.4*rng.NormFloat64()
		if i%10 == 0 {
			ys[i] += 20
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.RANSAC(xs, ys, stats.RANSACConfig{Degree: 2, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansGrouping(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	points := make([]cluster.Point, 600)
	for i := range points {
		if i%2 == 0 {
			points[i] = cluster.Point{8 + rng.NormFloat64(), 20 + rng.NormFloat64()}
		} else {
			points[i] = cluster.Point{3 + rng.NormFloat64(), 9 + rng.NormFloat64()}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.Config{K: 2, Seed: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 720) // one day of windows
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Percentiles(xs, 5, 25, 50, 75, 95)
	}
}

func BenchmarkGroupingTree(b *testing.B) {
	benchExperiment(b, "grouping-tree", "cv_auc (paper 0.9804)")
}
