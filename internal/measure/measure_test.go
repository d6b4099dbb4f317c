package measure

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// cleanSeries builds pool aggregates following a clean linear CPU response.
func cleanSeries(n int, slope, intercept, noise float64, seed int64) []metrics.TickStat {
	rng := rand.New(rand.NewSource(seed))
	out := make([]metrics.TickStat, n)
	for i := range out {
		rps := 100 + 300*rng.Float64()
		out[i] = metrics.TickStat{
			Tick:         i,
			Servers:      10,
			TotalRPS:     rps * 10,
			RPSPerServer: rps,
			CPUMean:      slope*rps + intercept + noise*rng.NormFloat64(),
			LatencyMean:  30 + 0.001*rps*rps/100,
			NetBytes:     24000 * rps * (1 + 0.08*rng.NormFloat64()),
			NetPkts:      22 * rps * (1 + 0.08*rng.NormFloat64()),
			MemPages:     9000 * rng.Float64(),
			DiskQueue:    0.8 * rng.ExpFloat64(),
			DiskRead:     9000 * rng.Float64() * 2400,
			Errors:       0,
		}
	}
	return out
}

func TestValidateWorkloadMetricCleanPool(t *testing.T) {
	series := cleanSeries(300, 0.028, 1.37, 0.3, 1)
	rep, err := ValidateWorkloadMetric(series)
	if err != nil {
		t.Fatalf("ValidateWorkloadMetric: %v", err)
	}
	if !rep.Valid {
		t.Error("clean pool should validate")
	}
	if rep.LimitingResource != "cpu" {
		t.Errorf("limiting resource = %q, want cpu", rep.LimitingResource)
	}
	cpu, err := rep.Counter("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !cpu.Linear || cpu.Fit.R2 < 0.95 {
		t.Errorf("cpu correlation = %+v, want tight linear", cpu)
	}
	// Network counters correlate too but with more variance; paging should
	// NOT be linear (it is background noise).
	mem, err := rep.Counter("mem_pages")
	if err != nil {
		t.Fatal(err)
	}
	if mem.Linear {
		t.Errorf("mem_pages should not be linear, R2 = %v", mem.Fit.R2)
	}
	if _, err := rep.Counter("nope"); err == nil {
		t.Error("unknown counter should error")
	}
	if rep.Windows != 300 {
		t.Errorf("Windows = %d, want 300", rep.Windows)
	}
}

func TestValidateWorkloadMetricErrors(t *testing.T) {
	if _, err := ValidateWorkloadMetric(nil); err == nil {
		t.Error("empty series should error")
	}
	if _, err := ValidateWorkloadMetric(cleanSeries(2, 1, 0, 0, 1)); err == nil {
		t.Error("two windows should error")
	}
}

func TestRefineByOutlierRemoval(t *testing.T) {
	// Contaminate 20% of windows with background CPU (the log-upload
	// pattern): validation fails, refinement recovers it.
	series := cleanSeries(300, 0.028, 1.37, 0.25, 2)
	rng := rand.New(rand.NewSource(3))
	for i := range series {
		if rng.Float64() < 0.2 {
			series[i].CPUMean += 8 + 4*rng.Float64()
		}
	}
	before, err := ValidateWorkloadMetric(series)
	if err != nil {
		t.Fatal(err)
	}
	cpuBefore, _ := before.Counter("cpu")
	if cpuBefore.Linear {
		t.Skip("contamination did not break linearity at this seed; strengthen")
	}
	res, err := RefineByOutlierRemoval(series)
	if err != nil {
		t.Fatalf("RefineByOutlierRemoval: %v", err)
	}
	if res.Removed < 30 || res.Removed > 90 {
		t.Errorf("removed %d windows, want ~60", res.Removed)
	}
	if res.After <= res.Before {
		t.Errorf("R2 did not improve: %v -> %v", res.Before, res.After)
	}
	if res.After < 0.95 {
		t.Errorf("refined R2 = %v, want >= 0.95", res.After)
	}
}

func TestRefineErrors(t *testing.T) {
	if _, err := RefineByOutlierRemoval(cleanSeries(5, 1, 0, 0, 1)); err == nil {
		t.Error("too few windows should error")
	}
}

func TestGroupServersTwoGenerations(t *testing.T) {
	// Simulate pool I (two hardware generations) and check grouping finds
	// both clusters.
	cfg := sim.FleetConfig{
		DCs:   workload.NineRegions(),
		Pools: []sim.PoolConfig{sim.PoolI()},
		Seed:  5,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	sums, err := agg.ServerSummaries("DC 1", "I")
	if err != nil {
		t.Fatal(err)
	}
	g, err := GroupServers(sums, 4, 7)
	if err != nil {
		t.Fatalf("GroupServers: %v", err)
	}
	if len(g.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(g.Groups))
	}
	// Groups are ordered by p95 centroid: the first must be the newer
	// (cooler) generation.
	if g.Groups[0].P95Centroid >= g.Groups[1].P95Centroid {
		t.Error("groups not ordered by centroid")
	}
	if g.Silhouette < 0.6 {
		t.Errorf("silhouette = %v, want >= 0.6", g.Silhouette)
	}
	total := len(g.Groups[0].Servers) + len(g.Groups[1].Servers)
	if total != 60 {
		t.Errorf("grouped servers = %d, want 60", total)
	}
}

func TestGroupServersSingleGeneration(t *testing.T) {
	cfg := sim.FleetConfig{
		DCs:   workload.NineRegions(),
		Pools: []sim.PoolConfig{sim.PoolB()},
		Seed:  6,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	sums, err := agg.ServerSummaries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	g, err := GroupServers(sums, 4, 8)
	if err != nil {
		t.Fatalf("GroupServers: %v", err)
	}
	if len(g.Groups) != 1 {
		t.Errorf("groups = %d, want 1 for a homogeneous pool", len(g.Groups))
	}
}

func TestGroupServersErrors(t *testing.T) {
	if _, err := GroupServers(nil, 3, 1); err == nil {
		t.Error("no summaries should error")
	}
	offline := []metrics.ServerSummary{{Server: "s1"}} // CPU.N == 0
	if _, err := GroupServers(offline, 3, 1); err == nil {
		t.Error("all-offline pool should error")
	}
}

func TestTrainGroupClassifier(t *testing.T) {
	// Build labelled examples: predictable pools have tight CPU bands,
	// unpredictable ones have wide noisy bands.
	rng := rand.New(rand.NewSource(9))
	var examples []PoolExample
	mkSummary := func(tight bool) metrics.ServerSummary {
		base := 5 + rng.Float64()*8
		spread := 2 + rng.Float64()*3
		if !tight {
			spread = 14 + rng.Float64()*25
		}
		cpu := stats.Summary{
			N: 100, P5: base, P25: base + 0.25*spread, P50: base + 0.5*spread,
			P75: base + 0.75*spread, P95: base + spread,
		}
		return metrics.ServerSummary{
			Server: "s", CPU: cpu,
			Slope: spread / 90, Intercept: base, R2: 0.99,
		}
	}
	for i := 0; i < 250; i++ {
		examples = append(examples, BuildExamples([]metrics.ServerSummary{mkSummary(true)}, true)...)
		examples = append(examples, BuildExamples([]metrics.ServerSummary{mkSummary(false)}, false)...)
	}
	res, err := TrainGroupClassifier(examples, 10, 11)
	if err != nil {
		t.Fatalf("TrainGroupClassifier: %v", err)
	}
	// In the spirit of the paper's AUC = 0.9804.
	if res.CV.AUC < 0.95 {
		t.Errorf("AUC = %v, want >= 0.95", res.CV.AUC)
	}
	if res.CV.Accuracy < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", res.CV.Accuracy)
	}
	if res.Splits < 1 {
		t.Error("tree should have splits")
	}
	if res.Examples != len(examples) {
		t.Errorf("Examples = %d, want %d", res.Examples, len(examples))
	}
	// Spot prediction.
	p, err := res.Tree.Predict(mkSummary(true).FeatureVector())
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 {
		t.Errorf("tight server scored %v, want >= 0.5", p)
	}
}

func TestTrainGroupClassifierErrors(t *testing.T) {
	if _, err := TrainGroupClassifier(nil, 10, 1); err == nil {
		t.Error("no examples should error")
	}
}

func TestBuildExamplesSkipsOffline(t *testing.T) {
	sums := []metrics.ServerSummary{
		{Server: "on", CPU: stats.Summary{N: 5, P5: 1, P95: 2}},
		{Server: "off"}, // never online
	}
	ex := BuildExamples(sums, true)
	if len(ex) != 1 {
		t.Errorf("examples = %d, want 1", len(ex))
	}
	if !ex[0].Predictable || len(ex[0].Features) != 8 {
		t.Errorf("example = %+v", ex[0])
	}
}

func TestValidationReportPearsonSign(t *testing.T) {
	series := cleanSeries(100, 0.05, 2, 0.1, 12)
	rep, err := ValidateWorkloadMetric(series)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := rep.Counter("cpu")
	if math.IsNaN(cpu.Pearson) || cpu.Pearson < 0.9 {
		t.Errorf("cpu Pearson = %v, want strongly positive", cpu.Pearson)
	}
}
