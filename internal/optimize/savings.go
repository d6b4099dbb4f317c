package optimize

import (
	"fmt"

	"headroom/internal/metrics"
	"headroom/internal/stats"
)

// BestPracticeAvailability is the availability of well-managed pools: the
// paper observed 98% (2% infrastructure maintenance is irreducible) and uses
// it as the target all pools could reach by improving planned-maintenance
// practices.
const BestPracticeAvailability = 0.98

// SavingsRow is one row of the paper's Table IV: the capacity savings
// opportunity for a pool across all datacenters.
type SavingsRow struct {
	Pool string
	// EfficiencySavings is the fraction of servers removable while the
	// latency forecast stays within the QoS budget ("Efficiency Savings").
	EfficiencySavings float64
	// LatencyImpactMs is the forecast latency increase at the reduced
	// count ("Latency (QoS) Impact").
	LatencyImpactMs float64
	// OnlineSavings is the capacity recoverable by raising availability to
	// best practice ("Online Savings").
	OnlineSavings float64
	// TotalSavings combines both ("Total Savings").
	TotalSavings float64
	// Servers is the pool's nominal server count across datacenters.
	Servers int
}

// SavingsConfig controls SizePool, and through it the Table IV computation.
type SavingsConfig struct {
	// LatencyBudgetMs is the acceptable latency increase over the current
	// operating point (the paper accepted an average of 5 ms, <1% of
	// end-to-end latency).
	LatencyBudgetMs float64
	// MaxReductionFrac caps the per-pool efficiency savings; the paper
	// treats 33% as the practical per-pool limit (headroom must survive
	// single-DC failures).
	MaxReductionFrac float64
}

func (c SavingsConfig) withDefaults() SavingsConfig {
	if c.LatencyBudgetMs <= 0 {
		c.LatencyBudgetMs = 5
	}
	if c.MaxReductionFrac <= 0 {
		c.MaxReductionFrac = 1.0 / 3
	}
	return c
}

// PoolObservation is one pool's data for the savings analysis: its history
// in one datacenter plus availability across the fleet.
type PoolObservation struct {
	Pool string
	// Series is the pool's aggregate history (any representative DC).
	Series []metrics.TickStat
	// Servers is the nominal server count across all datacenters.
	Servers int
	// Availability is the pool's mean server availability in [0, 1].
	Availability float64
}

// Sizing is Step 2's answer for one pool: the fitted workload models, the
// server count at the pool's p95 operating point, and the smallest count
// whose forecast latency stays within the budget there.
type Sizing struct {
	Model PoolModel
	// Current is the server count at the p95 operating point: p95 total load
	// over p95 per-server load (the series may span maintenance dips, so it
	// is not read off the series).
	Current int
	// Recommended is the right-sized count and SavingsFrac the fraction of
	// Current it removes, capped at MaxReductionFrac.
	Recommended int
	SavingsFrac float64
	// BaselineLatencyMs is the latency model at the p95 per-server load;
	// ForecastLatencyMs is its forecast at Recommended servers and the p95
	// total load.
	BaselineLatencyMs float64
	ForecastLatencyMs float64
}

// SizePool right-sizes one pool from its history: fit the workload models,
// take the p95 operating point, and find the largest reduction whose
// forecast latency stays within cfg.LatencyBudgetMs above the latency there,
// capped at cfg.MaxReductionFrac.
func SizePool(series []metrics.TickStat, cfg SavingsConfig) (Sizing, error) {
	cfg = cfg.withDefaults()
	model, err := FitPoolModel(series)
	if err != nil {
		return Sizing{}, err
	}
	var loads, totals []float64
	for _, t := range series {
		if t.Servers == 0 {
			continue
		}
		loads = append(loads, t.RPSPerServer)
		totals = append(totals, t.TotalRPS)
	}
	refLoad := stats.Percentile(loads, 95)
	refTotal := stats.Percentile(totals, 95)
	sz := Sizing{Model: model, BaselineLatencyMs: model.Latency.Predict(refLoad)}
	sz.Current = max(int(refTotal/refLoad+0.5), 1)
	sz.Recommended, sz.SavingsFrac, err = model.MaxReduction(refTotal, sz.Current, sz.BaselineLatencyMs+cfg.LatencyBudgetMs)
	if err != nil {
		return Sizing{}, err
	}
	if sz.SavingsFrac > cfg.MaxReductionFrac {
		sz.SavingsFrac = cfg.MaxReductionFrac
		sz.Recommended = int(float64(sz.Current)*(1-sz.SavingsFrac) + 0.5)
	}
	fc, err := model.ForecastReduction(refTotal, sz.Recommended)
	if err != nil {
		return Sizing{}, err
	}
	sz.ForecastLatencyMs = fc.LatencyMs
	return sz, nil
}

// SummarizeSavings computes a Table IV row per pool: the pool's SizePool
// savings, the forecast latency increase they cost, and the savings from
// lifting availability to best practice.
func SummarizeSavings(obs []PoolObservation, cfg SavingsConfig) ([]SavingsRow, error) {
	rows := make([]SavingsRow, 0, len(obs))
	for _, o := range obs {
		if o.Servers <= 0 {
			return nil, fmt.Errorf("optimize: pool %s has %d servers", o.Pool, o.Servers)
		}
		sz, err := SizePool(o.Series, cfg)
		if err != nil {
			return nil, fmt.Errorf("optimize: pool %s: %w", o.Pool, err)
		}
		latImpact := sz.ForecastLatencyMs - sz.BaselineLatencyMs
		if latImpact < 0 {
			latImpact = 0
		}

		online := 0.0
		if o.Availability > 0 && o.Availability < BestPracticeAvailability {
			// A pool at availability a needs 1/a the capacity a pool at
			// best practice needs; the difference is recoverable.
			online = 1 - o.Availability/BestPracticeAvailability
		}
		row := SavingsRow{
			Pool:              o.Pool,
			EfficiencySavings: sz.SavingsFrac,
			LatencyImpactMs:   latImpact,
			OnlineSavings:     online,
			Servers:           o.Servers,
		}
		// Savings compose: first remove headroom, then recover the
		// availability tax on what remains.
		row.TotalSavings = 1 - (1-row.EfficiencySavings)*(1-row.OnlineSavings)
		rows = append(rows, row)
	}
	return rows, nil
}

// WeightedTotals returns the server-weighted mean efficiency, online and
// total savings plus the mean latency impact — the summary line of
// Table IV.
func WeightedTotals(rows []SavingsRow) (efficiency, latencyMs, online, total float64, err error) {
	if len(rows) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("optimize: no savings rows")
	}
	var wsum float64
	for _, r := range rows {
		w := float64(r.Servers)
		wsum += w
		efficiency += w * r.EfficiencySavings
		online += w * r.OnlineSavings
		total += w * r.TotalSavings
		latencyMs += r.LatencyImpactMs
	}
	if wsum == 0 {
		return 0, 0, 0, 0, fmt.Errorf("optimize: zero total servers")
	}
	return efficiency / wsum, latencyMs / float64(len(rows)), online / wsum, total / wsum, nil
}
