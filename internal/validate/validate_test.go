package validate

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"headroom/internal/sim"
	"headroom/internal/synth"
)

// memLeakFixWithLatencyBug is the paper's §III-C case study: a change that
// fixes a memory leak (paging drops) but introduces a design flaw that
// inflates latency under high workload.
func memLeakFixWithLatencyBug(rp sim.ResponseParams) sim.ResponseParams {
	rp.MemPagesBase *= 0.3 // leak fixed: far less paging
	rp.LatQuad[2] *= 2.2   // new flaw: latency blows up under load
	return rp
}

// cleanImprovement fixes the leak without side effects.
func cleanImprovement(rp sim.ResponseParams) sim.ResponseParams {
	rp.MemPagesBase *= 0.3
	return rp
}

func defaultCfg(seed int64) Config {
	return Config{
		Pool:          sim.PoolB(),
		Profile:       synth.Profile{Loads: []float64{100, 200, 300, 400, 500, 600}, Servers: 20},
		TicksPerLevel: 25,
		Seed:          seed,
	}
}

func TestRunCatchesLatencyRegression(t *testing.T) {
	rep, err := Run(context.Background(), defaultCfg(1), Change{Name: "fix-leak-v1", Apply: memLeakFixWithLatencyBug})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.MemoryImproved {
		t.Error("memory fix should show as improved paging")
	}
	if !rep.LatencyRegression {
		t.Error("latency regression should be detected")
	}
	if rep.Acceptable {
		t.Error("change must be rejected")
	}
	// The regression appears under HIGH load, not at the low end —
	// exactly why production monitoring at normal load missed it.
	if rep.FirstRegressionLoad < 300 {
		t.Errorf("first regression at %v RPS/server, want high-load onset", rep.FirstRegressionLoad)
	}
	if len(rep.Levels) != 6 {
		t.Fatalf("levels = %d, want 6", len(rep.Levels))
	}
	// Level curves: change latency must exceed baseline at the top level.
	top := rep.Levels[len(rep.Levels)-1]
	if top.ChangeLatency.Mean <= top.BaselineLatency.Mean+2 {
		t.Errorf("top-level latency %v vs baseline %v, want clear regression",
			top.ChangeLatency.Mean, top.BaselineLatency.Mean)
	}
}

func TestRunAcceptsCleanChange(t *testing.T) {
	rep, err := Run(context.Background(), defaultCfg(2), Change{Name: "fix-leak-v2", Apply: cleanImprovement})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.MemoryImproved {
		t.Error("paging should improve")
	}
	if rep.LatencyRegression {
		t.Error("no latency regression expected")
	}
	if !rep.Acceptable {
		t.Error("clean change should be acceptable")
	}
	if rep.CapacityImpactFrac > 0.05 || rep.CapacityImpactFrac < -0.05 {
		t.Errorf("capacity impact = %v, want ~0", rep.CapacityImpactFrac)
	}
}

func TestRunDetectsCapacityIncrease(t *testing.T) {
	costly := func(rp sim.ResponseParams) sim.ResponseParams {
		rp.CPUSlope *= 1.3 // feature needs 30% more CPU per request
		return rp
	}
	rep, err := Run(context.Background(), defaultCfg(3), Change{Name: "heavy-feature", Apply: costly})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.CapacityImpactFrac < 0.2 {
		t.Errorf("capacity impact = %v, want ~0.3", rep.CapacityImpactFrac)
	}
	if rep.Acceptable {
		t.Error("capacity-expensive change must be rejected")
	}
}

func TestRunErrors(t *testing.T) {
	cfg := defaultCfg(4)
	if _, err := Run(context.Background(), cfg, Change{Name: "nil"}); err == nil {
		t.Error("nil Apply should error")
	}
	bad := cfg
	bad.Profile.Servers = 0
	if _, err := Run(context.Background(), bad, Change{Name: "x", Apply: cleanImprovement}); err == nil {
		t.Error("zero servers should error")
	}
	bad = cfg
	bad.Profile.Loads = []float64{100}
	if _, err := Run(context.Background(), bad, Change{Name: "x", Apply: cleanImprovement}); err == nil {
		t.Error("single load should error")
	}
	bad = cfg
	bad.Profile.Loads = []float64{200, 100}
	if _, err := Run(context.Background(), bad, Change{Name: "x", Apply: cleanImprovement}); err == nil {
		t.Error("non-ascending loads should error")
	}
	invalid := func(rp sim.ResponseParams) sim.ResponseParams {
		rp.CPUSlope = -1
		return rp
	}
	if _, err := Run(context.Background(), cfg, Change{Name: "bad", Apply: invalid}); err == nil {
		t.Error("invalid changed response should error")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(context.Background(), defaultCfg(5), Change{Name: "v", Apply: cleanImprovement})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), defaultCfg(5), Change{Name: "v", Apply: cleanImprovement})
	if err != nil {
		t.Fatal(err)
	}
	if a.CapacityImpactFrac != b.CapacityImpactFrac {
		t.Error("same seed should reproduce identical reports")
	}
	for i := range a.Levels {
		if a.Levels[i].ChangeLatency.Mean != b.Levels[i].ChangeLatency.Mean {
			t.Fatal("level results differ across identical seeds")
		}
	}
}

// TestRunNeedsTwoTicksPerLevel: one window a level summarises to a NaN
// latency spread, which JSON cannot render, so Run refuses it with the
// message the served decoder gives; two windows give a report that marshals.
func TestRunNeedsTwoTicksPerLevel(t *testing.T) {
	change := Change{Name: "fix-leak-v2", Apply: cleanImprovement}
	cfg := defaultCfg(3)
	cfg.TicksPerLevel = 1
	if _, err := Run(context.Background(), cfg, change); err == nil ||
		!strings.Contains(err.Error(), "ticks_per_level must be >= 2, got 1") {
		t.Fatalf("one tick per level: err = %v, want the ticks_per_level bound", err)
	}
	cfg.TicksPerLevel = 2
	rep, err := Run(context.Background(), cfg, change)
	if err != nil {
		t.Fatalf("two ticks per level: %v", err)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("two ticks per level: report does not marshal: %v", err)
	}
}
