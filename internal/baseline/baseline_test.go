package baseline

import (
	"math"
	"testing"
)

func TestErlangCKnownValues(t *testing.T) {
	// Classic check: c=1 reduces to M/M/1 where P(wait) = rho.
	m := MMc{Lambda: 0.7, Mu: 1, C: 1}
	pw, err := m.ErlangC()
	if err != nil {
		t.Fatalf("ErlangC: %v", err)
	}
	if math.Abs(pw-0.7) > 1e-12 {
		t.Errorf("M/M/1 P(wait) = %v, want rho = 0.7", pw)
	}
	// Larger pools queue less at the same utilisation (pooling effect).
	p1, err := (MMc{Lambda: 7, Mu: 1, C: 10}).ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := (MMc{Lambda: 70, Mu: 1, C: 100}).ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if p2 >= p1 {
		t.Errorf("pooling effect violated: C=100 P(wait) %v >= C=10 %v", p2, p1)
	}
	// Zero load: nobody waits.
	p0, err := (MMc{Lambda: 0, Mu: 1, C: 3}).ErlangC()
	if err != nil || p0 != 0 {
		t.Errorf("zero-load P(wait) = %v, %v", p0, err)
	}
}

func TestMMcValidation(t *testing.T) {
	bad := []MMc{
		{Lambda: -1, Mu: 1, C: 1},
		{Lambda: 1, Mu: 0, C: 1},
		{Lambda: 1, Mu: 1, C: 0},
		{Lambda: 2, Mu: 1, C: 2}, // rho = 1: unstable
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v should be invalid", m)
		}
	}
}

func TestWaitPercentile(t *testing.T) {
	m := MMc{Lambda: 8, Mu: 1, C: 10}
	w50, err := m.WaitPercentile(50)
	if err != nil {
		t.Fatal(err)
	}
	w95, err := m.WaitPercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if w95 <= w50 {
		t.Errorf("p95 wait %v should exceed p50 %v", w95, w50)
	}
	// Lightly loaded: the p50 request does not wait at all.
	light := MMc{Lambda: 1, Mu: 1, C: 10}
	w, err := light.WaitPercentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Errorf("light-load p50 wait = %v, want 0", w)
	}
	if _, err := m.WaitPercentile(0); err == nil {
		t.Error("percentile 0 should error")
	}
	if _, err := m.WaitPercentile(100); err == nil {
		t.Error("percentile 100 should error")
	}
}

func TestPlanServers(t *testing.T) {
	cfg := PlanConfig{
		PeakLambda:    10000, // req/s
		ServiceTimeMs: 10,
		SLOMs:         15,
		Percentile:    95,
	}
	c, err := PlanServers(cfg)
	if err != nil {
		t.Fatalf("PlanServers: %v", err)
	}
	// Must at least cover the raw work: lambda/mu = 100 servers.
	if c <= 100 {
		t.Errorf("c = %d, must exceed the work-conserving bound 100", c)
	}
	// The plan must meet the SLO, and c-1 must not (minimality).
	mu := 1000.0 / cfg.ServiceTimeMs
	check := func(c int) float64 {
		w, err := (MMc{Lambda: cfg.PeakLambda, Mu: mu, C: c}).WaitPercentile(95)
		if err != nil {
			return math.Inf(1)
		}
		return cfg.ServiceTimeMs + w*1000
	}
	if got := check(c); got > cfg.SLOMs {
		t.Errorf("latency at plan = %v ms, exceeds SLO", got)
	}
	if got := check(c - 1); got <= cfg.SLOMs {
		t.Errorf("c-1 also meets SLO (%v ms): plan not minimal", got)
	}
}

func TestPlanServersErrors(t *testing.T) {
	if _, err := PlanServers(PlanConfig{PeakLambda: -1, ServiceTimeMs: 1, SLOMs: 2}); err == nil {
		t.Error("negative load should error")
	}
	if _, err := PlanServers(PlanConfig{PeakLambda: 1, ServiceTimeMs: 0, SLOMs: 2}); err == nil {
		t.Error("zero service time should error")
	}
	if _, err := PlanServers(PlanConfig{PeakLambda: 1, ServiceTimeMs: 10, SLOMs: 5}); err == nil {
		t.Error("unachievable SLO should error")
	}
}

// respond is a simple convex plant for autoscaler tests.
func respond(totalRPS float64, servers int) (float64, float64) {
	per := totalRPS / float64(servers)
	cpu := 0.05*per + 2
	lat := 20 + 0.00002*per*per
	return cpu, lat
}

func TestSimulateAutoscalerTracksDiurnalLoad(t *testing.T) {
	cfg := AutoscalerConfig{
		TargetLow: 20, TargetHigh: 50,
		MinServers: 10, MaxServers: 500,
		ProvisionDelayTicks: 5, CooldownTicks: 3,
	}
	// One diurnal day at 120 s ticks.
	offered := make([]float64, 720)
	for i := range offered {
		day := float64(i) / 720
		offered[i] = 150000 * (1 + 0.4*math.Cos(2*math.Pi*(day-0.55)))
	}
	res, err := SimulateAutoscaler(cfg, offered, 200, 60, respond)
	if err != nil {
		t.Fatalf("SimulateAutoscaler: %v", err)
	}
	if len(res.Decisions) == 0 {
		t.Error("diurnal load should force scaling decisions")
	}
	if res.PeakServers <= 10 {
		t.Errorf("peak servers = %d", res.PeakServers)
	}
	if res.ServerTicks <= 0 {
		t.Error("server ticks must accumulate")
	}
}

func TestAutoscalerLagCausesViolationsUnderSurge(t *testing.T) {
	cfg := AutoscalerConfig{
		TargetLow: 20, TargetHigh: 50,
		MinServers: 10, MaxServers: 1000,
		ProvisionDelayTicks: 15, // slow provisioning (cache priming, JIT)
		CooldownTicks:       3,
	}
	// Flat load, then a sudden 2.3x surge (the paper's natural
	// experiment).
	offered := make([]float64, 300)
	for i := range offered {
		offered[i] = 100000
		if i >= 150 {
			offered[i] = 230000
		}
	}
	// Start right-sized for the flat load.
	reactive, err := SimulateAutoscaler(cfg, offered, 120, 45, respond)
	if err != nil {
		t.Fatal(err)
	}
	// A static plan provisioned for the surge (the paper's headroom
	// approach) has zero violations.
	static, err := StaticPlanCost(380, offered, 45, respond)
	if err != nil {
		t.Fatal(err)
	}
	if reactive.SLOViolations == 0 {
		t.Error("slow reactive scaling should violate SLO during the surge")
	}
	if static.SLOViolations != 0 {
		t.Errorf("static surge-sized plan should not violate, got %d", static.SLOViolations)
	}
}

func TestSimulateAutoscalerErrors(t *testing.T) {
	good := AutoscalerConfig{TargetLow: 20, TargetHigh: 50, MinServers: 1, MaxServers: 10}
	if _, err := SimulateAutoscaler(good, nil, 5, 10, respond); err == nil {
		t.Error("empty load should error")
	}
	if _, err := SimulateAutoscaler(good, []float64{1}, 50, 10, respond); err == nil {
		t.Error("initial out of bounds should error")
	}
	if _, err := SimulateAutoscaler(good, []float64{1}, 5, 10, nil); err == nil {
		t.Error("nil respond should error")
	}
	bad := good
	bad.TargetHigh = 10
	if _, err := SimulateAutoscaler(bad, []float64{1}, 5, 10, respond); err == nil {
		t.Error("inverted band should error")
	}
	if _, err := StaticPlanCost(0, []float64{1}, 10, respond); err == nil {
		t.Error("zero static servers should error")
	}
	if _, err := StaticPlanCost(5, []float64{1}, 10, nil); err == nil {
		t.Error("nil respond should error")
	}
}
