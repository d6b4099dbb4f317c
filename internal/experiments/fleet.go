package experiments

import (
	"context"
	"fmt"
	"sort"

	"headroom/internal/measure"
	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

func nineRegions() []workload.Datacenter { return workload.NineRegions() }

// poolDCs returns the datacenters pc runs in, sorted by name: a choice or a
// float sum over pc.Servers taken in map order differs from run to run.
func poolDCs(pc sim.PoolConfig) []string {
	dcs := make([]string, 0, len(pc.Servers))
	for dc := range pc.Servers {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	return dcs
}

// fleetServerSummaries collects every server summary in the fleet-day.
func fleetServerSummaries(agg *metrics.Aggregator) ([]metrics.ServerSummary, error) {
	var all []metrics.ServerSummary
	for _, key := range agg.Pools() {
		sums, err := agg.ServerSummaries(key.DC, key.Pool)
		if err != nil {
			return nil, err
		}
		all = append(all, sums...)
	}
	return all, nil
}

// Fig12 reproduces the CDF of per-server 95th-percentile CPU over a day.
// Paper: ~60% of servers at p95 <= 15%, ~80% below 30%, global mean ~23%.
func Fig12(ctx context.Context, cfg Config) (*Result, error) {
	agg, err := fleetAggregator(ctx, cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	sums, err := fleetServerSummaries(agg)
	if err != nil {
		return nil, err
	}
	var p95s, means []float64
	for _, s := range sums {
		if s.CPU.N == 0 {
			continue
		}
		p95s = append(p95s, s.CPU.P95)
		means = append(means, s.CPU.Mean)
	}
	ecdf, err := stats.NewECDF(p95s)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig12",
		Title:  "CDF of per-server p95 CPU utilisation (one day)",
		Header: []string{"p95_cpu_pct", "fraction_of_servers"},
	}
	for _, x := range []float64{5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100} {
		res.Rows = append(res.Rows, []string{f1(x), f3(ecdf.At(x))})
	}
	res.Metric("servers", float64(len(p95s)))
	res.Metric("frac_p95_le_15 (paper ~0.60)", ecdf.At(15))
	res.Metric("frac_p95_lt_30 (paper ~0.80)", ecdf.At(30))
	res.Metric("global_mean_util_pct (paper 23)", stats.Mean(means))
	res.Notes = append(res.Notes,
		"global mean utilisation runs below the paper's 23% because the paper's own Figures 12/13 bound it; see EXPERIMENTS.md")
	return res, nil
}

// Fig13 reproduces the distribution of individual 120 s CPU samples.
// Paper: only 1% of samples above 25%, fewer than 0.1% above 40%.
func Fig13(ctx context.Context, cfg Config) (*Result, error) {
	// Per-server summaries cannot reconstruct the raw sample distribution,
	// so stream a fleet-day at the sample level with the same seed.
	s, err := sim.New(sim.DefaultFleet(cfg.Seed))
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(nil, 20, 0, 100)
	if err != nil {
		return nil, err
	}
	var total, above25, above40 int
	if err := s.RunContext(ctx, s.TicksPerDay(), func(r trace.Record) error {
		if !r.Online {
			return nil
		}
		total++
		if r.CPUPct > 25 {
			above25++
		}
		if r.CPUPct > 40 {
			above40++
		}
		i := int(r.CPUPct / 5)
		if i >= 20 {
			i = 19
		}
		hist.Bins[i].Count++
		hist.Total++
		return nil
	}); err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig13",
		Title:  "Share of 120 s CPU samples per utilisation bucket (one day)",
		Header: []string{"cpu_bucket", "fraction_of_samples"},
	}
	for _, b := range hist.Bins {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("[%.0f%%,%.0f%%)", b.Lo, b.Hi),
			f3(float64(b.Count) / float64(hist.Total)),
		})
	}
	res.Metric("samples", float64(total))
	res.Metric("frac_above_25 (paper 0.01)", float64(above25)/float64(total))
	res.Metric("frac_above_40 (paper <0.001)", float64(above40)/float64(total))
	res.Notes = append(res.Notes,
		"high samples stay rare and spike-driven; the absolute 1% is not reachable while also matching Figure 12's 20% tail — see EXPERIMENTS.md")
	return res, nil
}

// Fig14 reproduces the distribution of daily server availability.
// Paper: average 83%, most servers >= 80%, modes at 85% and 98%.
func Fig14(ctx context.Context, cfg Config) (*Result, error) {
	agg, err := fleetAggregator(ctx, cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	sums, err := fleetServerSummaries(agg)
	if err != nil {
		return nil, err
	}
	var avs []float64
	for _, s := range sums {
		avs = append(avs, s.Availability)
	}
	hist, err := stats.NewHistogram(avs, 20, 0, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig14",
		Title:  "Share of servers per daily-availability bucket",
		Header: []string{"availability_bucket", "fraction_of_servers"},
	}
	for _, b := range hist.Bins {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("[%.0f%%,%.0f%%)", b.Lo*100, b.Hi*100),
			f3(float64(b.Count) / float64(hist.Total)),
		})
	}
	res.Metric("mean_availability (paper 0.83)", stats.Mean(avs))
	above80 := 0
	for _, a := range avs {
		if a >= 0.80 {
			above80++
		}
	}
	res.Metric("frac_at_least_80pct_online", float64(above80)/float64(len(avs)))
	return res, nil
}

// Fig15 reproduces the daily availability time series of pools C, D and H
// over 14 days. Paper: D and H consistently ~98%, C ~90%, with occasional
// pool-wide incident days.
func Fig15(ctx context.Context, cfg Config) (*Result, error) {
	days := 14
	if cfg.Fast {
		days = 4
	}
	pools := []sim.PoolConfig{sim.PoolC(), sim.PoolD(), sim.PoolH()}
	fleet := sim.FleetConfig{
		DCs:               nineRegions(),
		Pools:             pools,
		WorkloadNoiseFrac: 0.03,
		Seed:              cfg.Seed,
	}
	agg, err := aggregateFleet(ctx, fleet, days*720)
	if err != nil {
		return nil, err
	}
	series := map[string][]float64{}
	for _, pc := range pools {
		// Aggregate the pool's availability across its datacenters
		// (server-weighted mean of per-DC daily availability).
		var combined []float64
		var weight float64
		for _, dc := range poolDCs(pc) {
			n := pc.Servers[dc]
			av, err := agg.PoolAvailability(dc, pc.Name, 720)
			if err != nil {
				return nil, err
			}
			if combined == nil {
				combined = make([]float64, len(av))
			}
			for d := range av {
				combined[d] += av[d] * float64(n)
			}
			weight += float64(n)
		}
		for d := range combined {
			combined[d] /= weight
		}
		series[pc.Name] = combined
	}
	res := &Result{
		ID:     "fig15",
		Title:  "Daily pool availability (percent online)",
		Header: []string{"day", "pool_C", "pool_D", "pool_H"},
	}
	for d := 0; d < days; d++ {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", d),
			pct(series["C"][d]), pct(series["D"][d]), pct(series["H"][d]),
		})
	}
	res.Metric("mean_C (paper ~0.90)", stats.Mean(series["C"]))
	res.Metric("mean_D (paper ~0.98)", stats.Mean(series["D"]))
	res.Metric("mean_H (paper ~0.98)", stats.Mean(series["H"]))
	return res, nil
}

// Fig3 reproduces the (p5, p95) CPU scatter of pool I whose servers span
// two hardware generations, and the automated grouping that separates them.
func Fig3(ctx context.Context, cfg Config) (*Result, error) {
	agg, err := poolAggregator(ctx, sim.PoolI(), cfg.Seed, 720)
	if err != nil {
		return nil, err
	}
	perDC, err := agg.MergedServerSummaries("I")
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig3",
		Title:  "Per-server p5 vs p95 CPU, pool I (shapes are datacenters)",
		Header: []string{"dc", "server", "generation", "p5_cpu", "p95_cpu"},
	}
	var all []metrics.ServerSummary
	for dc, sums := range perDC {
		for i, s := range sums {
			all = append(all, s)
			if i < 8 { // sample rows per DC keep the figure readable
				res.Rows = append(res.Rows, []string{dc, s.Server, s.Generation, f1(s.CPU.P5), f1(s.CPU.P95)})
			}
		}
	}
	grouping, err := measure.GroupServers(all, 4, 0.6, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res.Metric("servers", float64(len(all)))
	res.Metric("groups_found (paper: 2 clusters)", float64(len(grouping.Groups)))
	res.Metric("silhouette", grouping.Silhouette)
	if len(grouping.Groups) == 2 {
		res.Metric("cool_cluster_p95_centroid", grouping.Groups[0].P95Centroid)
		res.Metric("hot_cluster_p95_centroid", grouping.Groups[1].P95Centroid)
	}
	res.Notes = append(res.Notes,
		"the lower cluster is the newer, more powerful hardware generation, as the paper's investigation found")
	return res, nil
}

// Fig2 reproduces the six resource-counter-vs-workload panels for
// micro-service D across six datacenters over one day.
func Fig2(ctx context.Context, cfg Config) (*Result, error) {
	agg, err := poolAggregator(ctx, sim.PoolD(), cfg.Seed, 720)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig2",
		Title:  "Counter vs workload linearity per datacenter (micro-service D)",
		Header: []string{"counter", "dc", "slope", "intercept", "R2", "linear"},
	}
	counters := []string{"cpu", "net_bytes", "net_pkts", "mem_pages", "disk_queue", "disk_read"}
	linearByCounter := map[string]int{}
	dcs := 0
	for _, key := range agg.Pools() {
		dcs++
		series, err := agg.PoolSeries(key.DC, key.Pool)
		if err != nil {
			return nil, err
		}
		rep, err := measure.ValidateWorkloadMetric(series, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range counters {
			cc, err := rep.Counter(name)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				name, key.DC, g4(cc.Fit.Slope), g4(cc.Fit.Intercept), f3(cc.Fit.R2),
				fmt.Sprintf("%v", cc.Linear),
			})
			if cc.Linear {
				linearByCounter[name]++
			}
		}
	}
	res.Metric("datacenters", float64(dcs))
	res.Metric("cpu_linear_dcs (paper: all)", float64(linearByCounter["cpu"]))
	res.Metric("net_bytes_linear_dcs (paper: linear, more variance)", float64(linearByCounter["net_bytes"]))
	res.Metric("mem_pages_linear_dcs (paper: vertical noise, 0)", float64(linearByCounter["mem_pages"]))
	res.Metric("disk_queue_linear_dcs (paper: static, 0)", float64(linearByCounter["disk_queue"]))
	res.Notes = append(res.Notes,
		"CPU shows the tight linear relationship that validates RPS as the workload metric; paging and disk queues are background noise")
	return res, nil
}
