// Package optimize implements Step 2 of the capacity-planning methodology
// (§II-B of the paper): determining the minimal server count for each pool
// that still meets its QoS, using historical data, natural experiments, and
// iterative server-reduction experiments driven by Response Surface
// Methodology (RSM).
//
// Two complementary model families are provided, matching the paper:
//
//   - Workload models (Figures 8-11): %CPU as a linear function of
//     RPS/server and p95 latency as a quadratic, fitted on pool history and
//     used to forecast the effect of a reduction (fewer servers ⇒ more
//     RPS/server at the same total load).
//
//   - Load-partitioned server-count models (eq. (1), Figure 7): time points
//     are partitioned by total pool workload; within each partition a robust
//     second-order polynomial lat ≈ a2·n² + a1·n + a0 is fitted against the
//     observed server count n, isolating the capacity effect from the
//     traffic effect.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"headroom/internal/metrics"
	"headroom/internal/stats"
)

// PoolModel is the black-box workload→resource/QoS model of one pool in one
// datacenter, fitted from per-tick pool aggregates.
type PoolModel struct {
	// CPU is the linear %CPU model against RPS/server (Figure 8/10).
	CPU stats.LinearFit
	// Latency is the quadratic p95-latency model against RPS/server
	// (Figure 9/11).
	Latency stats.Polynomial
	// Windows is the number of observation windows behind the fits.
	Windows int
}

// FitPoolModel fits the workload models from pool history.
func FitPoolModel(series []metrics.TickStat) (PoolModel, error) {
	if len(series) < 6 {
		return PoolModel{}, fmt.Errorf("optimize: need >= 6 windows, got %d", len(series))
	}
	xs := make([]float64, 0, len(series))
	cpu := make([]float64, 0, len(series))
	lat := make([]float64, 0, len(series))
	for _, t := range series {
		if t.Servers == 0 {
			continue
		}
		xs = append(xs, t.RPSPerServer)
		cpu = append(cpu, t.CPUMean)
		lat = append(lat, t.LatencyMean)
	}
	cf, err := stats.LinearRegression(xs, cpu)
	if err != nil {
		return PoolModel{}, fmt.Errorf("optimize: cpu fit: %w", err)
	}
	lf, err := stats.PolyFit(xs, lat, 2)
	if err != nil {
		return PoolModel{}, fmt.Errorf("optimize: latency fit: %w", err)
	}
	return PoolModel{CPU: cf, Latency: lf, Windows: len(xs)}, nil
}

// Forecast is the predicted operating point of a pool after a capacity
// change.
type Forecast struct {
	// RPSPerServer is the per-server load implied by the new server count
	// at the reference total load.
	RPSPerServer float64
	// CPUPct and LatencyMs are the model predictions at that load.
	CPUPct    float64
	LatencyMs float64
}

// ForecastReduction predicts the pool's operating point when the server
// count changes from current to proposed at a fixed total workload
// (totalRPS). This is the calculation behind the paper's "predicted the
// 95th-perc. latency to be 31.5 ms after removing 30% of servers".
func (m PoolModel) ForecastReduction(totalRPS float64, current, proposed int) (Forecast, error) {
	if current <= 0 || proposed <= 0 {
		return Forecast{}, fmt.Errorf("optimize: non-positive server count (%d -> %d)", current, proposed)
	}
	if totalRPS < 0 {
		return Forecast{}, fmt.Errorf("optimize: negative total RPS %v", totalRPS)
	}
	perServer := totalRPS / float64(proposed)
	return Forecast{
		RPSPerServer: perServer,
		CPUPct:       m.CPU.Predict(perServer),
		LatencyMs:    m.Latency.Predict(perServer),
	}, nil
}

// MaxReduction returns the smallest server count (and the savings fraction)
// that keeps the forecast latency within qosLimitMs at the given reference
// total load. It scans downward from current-1; the forecast latency is the
// quadratic model's value at the implied per-server load.
func (m PoolModel) MaxReduction(totalRPS float64, current int, qosLimitMs float64) (servers int, savingsFrac float64, err error) {
	if current <= 0 {
		return 0, 0, fmt.Errorf("optimize: non-positive server count %d", current)
	}
	best := current
	for n := current - 1; n >= 1; n-- {
		f, err := m.ForecastReduction(totalRPS, current, n)
		if err != nil {
			return 0, 0, err
		}
		// Stop as soon as QoS would be violated or the CPU model leaves
		// its trustworthy range (beyond 100% a server cannot serve).
		if f.LatencyMs > qosLimitMs || f.CPUPct >= 100 {
			break
		}
		best = n
	}
	return best, 1 - float64(best)/float64(current), nil
}

// ObsPoint is one (server count, latency) observation inside a total-load
// partition, in the paper's notation one (n_idjk, l_idjk) pair.
type ObsPoint struct {
	Tick     int
	Servers  float64
	Latency  float64
	TotalRPS float64
}

// Partition is one total-load bucket r_idj with its observations t_idj.
type Partition struct {
	LoadLo, LoadHi float64
	Points         []ObsPoint
}

// PartitionPoints splits observations into j buckets of total workload with
// (approximately) equal observation counts, the {r_idj} partitioning of
// §II-B2. Quantile-based bucket edges keep "sufficient data within each
// heavily used partition".
func PartitionPoints(points []ObsPoint, j int) ([]Partition, error) {
	if j < 1 {
		return nil, fmt.Errorf("optimize: need >= 1 partition, got %d", j)
	}
	pts := append([]ObsPoint(nil), points...)
	if len(pts) < j {
		return nil, fmt.Errorf("optimize: %d observations for %d partitions", len(pts), j)
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].TotalRPS < pts[b].TotalRPS })
	parts := make([]Partition, j)
	for k := 0; k < j; k++ {
		lo, hi := k*len(pts)/j, (k+1)*len(pts)/j
		seg := pts[lo:hi]
		p := Partition{Points: append([]ObsPoint(nil), seg...)}
		p.LoadLo = seg[0].TotalRPS
		p.LoadHi = seg[len(seg)-1].TotalRPS
		// Restore time order within the partition.
		sort.Slice(p.Points, func(a, b int) bool { return p.Points[a].Tick < p.Points[b].Tick })
		parts[k] = p
	}
	return parts, nil
}

// LatencyVsServers fits the paper's equation (1) — a robust second-order
// polynomial of latency against server count — within one total-load
// partition. Production partitions are contaminated by deployments and
// traffic shifts, hence RANSAC.
func LatencyVsServers(p Partition, seed int64) (stats.RANSACResult, error) {
	if len(p.Points) < 8 {
		return stats.RANSACResult{}, fmt.Errorf("optimize: partition has %d points, need >= 8", len(p.Points))
	}
	ns := make([]float64, len(p.Points))
	ls := make([]float64, len(p.Points))
	for i, pt := range p.Points {
		ns[i] = pt.Servers
		ls[i] = pt.Latency
	}
	res, err := stats.RANSAC(ns, ls, stats.RANSACConfig{Degree: 2, Seed: seed, MaxIterations: 300})
	if err != nil {
		return stats.RANSACResult{}, fmt.Errorf("optimize: %w", err)
	}
	return res, nil
}

// EventValidation compares a model fitted before a natural experiment with
// the observations during it (§II-B1, Figures 4-6).
type EventValidation struct {
	// Model is the pre-event fit.
	Model PoolModel
	// MeanAbsCPUErr and MeanAbsLatErr are the mean absolute prediction
	// errors over the event windows.
	MeanAbsCPUErr float64
	MeanAbsLatErr float64
	// PeakRPSRatio is the event's peak per-server load over the pre-event
	// p95 load (the paper's first event: ~1.56 median, 2.27 max; second
	// event: ~4x).
	PeakRPSRatio float64
	// EventWindows is the number of in-event observations scored.
	EventWindows int
}

// ValidateOnEvent fits the pool model on pre-event windows and scores it on
// the event windows. inEvent selects event ticks.
func ValidateOnEvent(series []metrics.TickStat, inEvent func(tick int) bool) (EventValidation, error) {
	if inEvent == nil {
		return EventValidation{}, errors.New("optimize: nil event selector")
	}
	var pre, during []metrics.TickStat
	for _, t := range series {
		if inEvent(t.Tick) {
			during = append(during, t)
		} else {
			pre = append(pre, t)
		}
	}
	if len(during) == 0 {
		return EventValidation{}, errors.New("optimize: no event windows selected")
	}
	model, err := FitPoolModel(pre)
	if err != nil {
		return EventValidation{}, fmt.Errorf("optimize: pre-event fit: %w", err)
	}
	var preLoads []float64
	for _, t := range pre {
		preLoads = append(preLoads, t.RPSPerServer)
	}
	preP95 := stats.Percentile(preLoads, 95)

	ev := EventValidation{Model: model, EventWindows: len(during)}
	var cpuErr, latErr, peak float64
	for _, t := range during {
		cpuErr += math.Abs(t.CPUMean - model.CPU.Predict(t.RPSPerServer))
		latErr += math.Abs(t.LatencyMean - model.Latency.Predict(t.RPSPerServer))
		if t.RPSPerServer > peak {
			peak = t.RPSPerServer
		}
	}
	ev.MeanAbsCPUErr = cpuErr / float64(len(during))
	ev.MeanAbsLatErr = latErr / float64(len(during))
	if preP95 > 0 {
		ev.PeakRPSRatio = peak / preP95
	}
	return ev, nil
}
