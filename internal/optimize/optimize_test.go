package optimize

import (
	"math"
	"math/rand"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/stats"
)

// poolBSeries builds pool-B-like aggregates: linear CPU, quadratic latency,
// diurnal per-server load around a server count.
func poolBSeries(n, servers int, seed int64) []metrics.TickStat {
	rng := rand.New(rand.NewSource(seed))
	truthLat := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	out := make([]metrics.TickStat, n)
	for i := range out {
		dayFrac := float64(i%720) / 720
		rps := 280 * (1 + 0.38*math.Cos(2*math.Pi*(dayFrac-13.0/24))) * (1 + 0.03*rng.NormFloat64())
		out[i] = metrics.TickStat{
			Tick:         i,
			Servers:      servers,
			TotalRPS:     rps * float64(servers),
			RPSPerServer: rps,
			CPUMean:      0.028*rps + 1.37 + 0.3*rng.NormFloat64(),
			LatencyMean:  truthLat.Predict(rps) + 0.5*rng.NormFloat64(),
		}
	}
	return out
}

func TestFitPoolModelRecoversPaperFits(t *testing.T) {
	series := poolBSeries(1221, 300, 1)
	m, err := FitPoolModel(series)
	if err != nil {
		t.Fatalf("FitPoolModel: %v", err)
	}
	if math.Abs(m.CPU.Slope-0.028) > 0.002 {
		t.Errorf("cpu slope = %v, want ~0.028", m.CPU.Slope)
	}
	if m.CPU.R2 < 0.95 {
		t.Errorf("cpu R2 = %v, want >= 0.95 (paper: 0.984)", m.CPU.R2)
	}
	truth := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	for _, rps := range []float64{250, 377, 540} {
		if d := math.Abs(m.Latency.Predict(rps) - truth.Predict(rps)); d > 1 {
			t.Errorf("latency(%v) = %v, truth %v", rps, m.Latency.Predict(rps), truth.Predict(rps))
		}
	}
	if m.Windows != 1221 {
		t.Errorf("Windows = %d, want 1221", m.Windows)
	}
}

func TestFitPoolModelErrors(t *testing.T) {
	if _, err := FitPoolModel(nil); err == nil {
		t.Error("empty series should error")
	}
	if _, err := FitPoolModel(poolBSeries(4, 10, 1)); err == nil {
		t.Error("too few windows should error")
	}
}

func TestForecastReductionPaperScenario(t *testing.T) {
	// The paper's pool B experiment: 30% reduction at ~377 RPS/server
	// forecast 31.5 ms (measured 30.9). Reproduce the arithmetic with the
	// published models.
	m := PoolModel{
		CPU:     stats.LinearFit{Slope: 0.028, Intercept: 1.37},
		Latency: stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}},
	}
	total := 377.0 * 300 // p95 load at original count
	fc, err := m.ForecastReduction(total, 300, 210)
	if err != nil {
		t.Fatalf("ForecastReduction: %v", err)
	}
	if math.Abs(fc.RPSPerServer-538.6) > 1 {
		t.Errorf("RPS/server = %v, want ~538.6", fc.RPSPerServer)
	}
	// cpu = 0.028*538.6+1.37 = 16.45 (paper forecast 16.5 at 540).
	if math.Abs(fc.CPUPct-16.45) > 0.1 {
		t.Errorf("cpu = %v, want ~16.45", fc.CPUPct)
	}
	// latency = 31.67 at 540 RPS (paper: 31.5 at its measured load).
	if math.Abs(fc.LatencyMs-31.66) > 0.2 {
		t.Errorf("latency = %v, want ~31.66", fc.LatencyMs)
	}
	if _, err := m.ForecastReduction(total, 0, 10); err == nil {
		t.Error("zero current should error")
	}
	if _, err := m.ForecastReduction(-1, 10, 5); err == nil {
		t.Error("negative load should error")
	}
}

func TestMaxReduction(t *testing.T) {
	m := PoolModel{
		CPU:     stats.LinearFit{Slope: 0.028, Intercept: 1.37},
		Latency: stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}},
	}
	total := 377.0 * 300
	// Budget latency 36 ms: find largest cut.
	servers, frac, err := m.MaxReduction(total, 300, 36)
	if err != nil {
		t.Fatalf("MaxReduction: %v", err)
	}
	if servers >= 300 || servers <= 0 {
		t.Fatalf("servers = %d", servers)
	}
	fc, err := m.ForecastReduction(total, 300, servers)
	if err != nil {
		t.Fatal(err)
	}
	if fc.LatencyMs > 36 {
		t.Errorf("latency at recommendation = %v, exceeds limit", fc.LatencyMs)
	}
	fc2, err := m.ForecastReduction(total, 300, servers-1)
	if err != nil {
		t.Fatal(err)
	}
	if fc2.LatencyMs <= 36 && fc2.CPUPct < 100 {
		t.Errorf("one fewer server (lat %v) would still fit; not maximal", fc2.LatencyMs)
	}
	if math.Abs(frac-(1-float64(servers)/300)) > 1e-12 {
		t.Errorf("frac = %v inconsistent with servers = %d", frac, servers)
	}
	// A limit below the current latency forbids any reduction.
	servers, frac, err = m.MaxReduction(total, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if servers != 300 || frac != 0 {
		t.Errorf("impossible limit: servers=%d frac=%v, want 300/0", servers, frac)
	}
	if _, _, err := m.MaxReduction(total, 0, 36); err == nil {
		t.Error("zero current should error")
	}
}

func TestPartitionByLoad(t *testing.T) {
	var points []ObsPoint
	for _, ts := range poolBSeries(720, 300, 2) {
		points = append(points, ObsPoint{Tick: ts.Tick, Servers: float64(ts.Servers), Latency: ts.LatencyMean, TotalRPS: ts.TotalRPS})
	}
	parts, err := PartitionPoints(points, 5)
	if err != nil {
		t.Fatalf("PartitionPoints: %v", err)
	}
	if len(parts) != 5 {
		t.Fatalf("partitions = %d, want 5", len(parts))
	}
	var total int
	for i, p := range parts {
		total += len(p.Points)
		if p.LoadHi < p.LoadLo {
			t.Errorf("partition %d inverted bounds", i)
		}
		if i > 0 && p.LoadLo < parts[i-1].LoadHi-1e-9 {
			t.Errorf("partition %d overlaps previous", i)
		}
		// Equal-count partitioning: sizes within 1.
		if len(p.Points) < 720/5-1 || len(p.Points) > 720/5+1 {
			t.Errorf("partition %d size %d", i, len(p.Points))
		}
	}
	if total != 720 {
		t.Errorf("points = %d, want 720", total)
	}
	if _, err := PartitionPoints(points, 0); err == nil {
		t.Error("zero partitions should error")
	}
	if _, err := PartitionPoints(nil, 2); err == nil {
		t.Error("no points should error")
	}
}

func TestLatencyVsServers(t *testing.T) {
	// Within one load partition, vary server count and observe latency:
	// the robust quadratic must recover the inverse relationship (fewer
	// servers -> higher latency).
	rng := rand.New(rand.NewSource(3))
	truthLat := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	totalLoad := 100000.0
	var p Partition
	for tick := 0; tick < 200; tick++ {
		n := 180 + float64(rng.Intn(140)) // 180..320 servers
		perServer := totalLoad / n
		p.Points = append(p.Points, ObsPoint{
			Tick:     tick,
			Servers:  n,
			Latency:  truthLat.Predict(perServer) + 0.3*rng.NormFloat64(),
			TotalRPS: totalLoad,
		})
	}
	res, err := LatencyVsServers(p, 4)
	if err != nil {
		t.Fatalf("LatencyVsServers: %v", err)
	}
	// Latency must decrease with server count across the observed range.
	at200 := res.Model.Predict(200)
	at300 := res.Model.Predict(300)
	if at200 <= at300 {
		t.Errorf("latency(200 servers)=%v should exceed latency(300)=%v", at200, at300)
	}
	// And match the truth through the per-server mapping.
	truthAt200 := truthLat.Predict(totalLoad / 200)
	if math.Abs(at200-truthAt200) > 1 {
		t.Errorf("latency(200) = %v, truth %v", at200, truthAt200)
	}
	if _, err := LatencyVsServers(Partition{}, 1); err == nil {
		t.Error("empty partition should error")
	}
}

func TestValidateOnEvent(t *testing.T) {
	// Pre-event: normal diurnal traffic. Event: +127% load on the same
	// linear/quadratic truth — prediction error must stay small (Figures
	// 4-6), and the peak ratio must reflect the surge.
	series := poolBSeries(720, 300, 5)
	rng := rand.New(rand.NewSource(6))
	truthLat := stats.Polynomial{Coeffs: []float64{36.68, -0.031, 4.028e-5}}
	for i := 380; i < 440; i++ {
		rps := series[i].RPSPerServer * 2.27
		series[i].RPSPerServer = rps
		series[i].TotalRPS = rps * 300
		series[i].CPUMean = 0.028*rps + 1.37 + 0.3*rng.NormFloat64()
		series[i].LatencyMean = truthLat.Predict(rps) + 0.5*rng.NormFloat64()
	}
	ev, err := ValidateOnEvent(series, func(tick int) bool { return tick >= 380 && tick < 440 })
	if err != nil {
		t.Fatalf("ValidateOnEvent: %v", err)
	}
	if ev.MeanAbsCPUErr > 1 {
		t.Errorf("cpu error = %v, want <= 1 (linear model holds through surge)", ev.MeanAbsCPUErr)
	}
	if ev.MeanAbsLatErr > 2 {
		t.Errorf("latency error = %v, want <= 2", ev.MeanAbsLatErr)
	}
	if ev.PeakRPSRatio < 1.8 {
		t.Errorf("peak ratio = %v, want ~2.27-ish surge visible", ev.PeakRPSRatio)
	}
	if ev.EventWindows != 60 {
		t.Errorf("event windows = %d, want 60", ev.EventWindows)
	}
	if _, err := ValidateOnEvent(series, nil); err == nil {
		t.Error("nil selector should error")
	}
	if _, err := ValidateOnEvent(series, func(int) bool { return false }); err == nil {
		t.Error("no event windows should error")
	}
}

func TestSummarizeSavings(t *testing.T) {
	obs := []PoolObservation{
		{Pool: "B", Series: poolBSeries(720, 300, 7), Servers: 550, Availability: 0.98},
		{Pool: "C", Series: poolBSeries(720, 200, 8), Servers: 200, Availability: 0.90},
	}
	rows, err := SummarizeSavings(obs, SavingsConfig{LatencyBudgetMs: 5})
	if err != nil {
		t.Fatalf("SummarizeSavings: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	b := rows[0]
	if b.EfficiencySavings <= 0.05 || b.EfficiencySavings > 1.0/3+1e-9 {
		t.Errorf("B efficiency savings = %v, want in (0.05, 0.333]", b.EfficiencySavings)
	}
	if b.LatencyImpactMs < 0 || b.LatencyImpactMs > 5.5 {
		t.Errorf("B latency impact = %v, want within budget", b.LatencyImpactMs)
	}
	if b.OnlineSavings != 0 {
		t.Errorf("B online savings = %v, want 0 at 98%% availability", b.OnlineSavings)
	}
	c := rows[1]
	wantOnline := 1 - 0.90/0.98
	if math.Abs(c.OnlineSavings-wantOnline) > 1e-9 {
		t.Errorf("C online savings = %v, want %v", c.OnlineSavings, wantOnline)
	}
	if c.TotalSavings <= c.EfficiencySavings {
		t.Error("total savings should compose efficiency and online")
	}

	eff, lat, online, total, err := WeightedTotals(rows)
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0 || total < eff || online < 0 || lat < 0 {
		t.Errorf("totals = %v %v %v %v", eff, lat, online, total)
	}
	if _, _, _, _, err := WeightedTotals(nil); err == nil {
		t.Error("empty rows should error")
	}
	if _, err := SummarizeSavings([]PoolObservation{{Pool: "X", Servers: 0}}, SavingsConfig{}); err == nil {
		t.Error("zero servers should error")
	}
}
