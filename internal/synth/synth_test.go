package synth

import (
	"context"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// productionTrace simulates pool B in DC 1 for a day and returns its
// aggregates.
func productionTrace(t *testing.T, seed int64) []metrics.TickStat {
	t.Helper()
	cfg := sim.FleetConfig{
		DCs:               workload.NineRegions(),
		Pools:             []sim.PoolConfig{sim.PoolB()},
		WorkloadNoiseFrac: 0.03,
		Seed:              seed,
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := metrics.NewAggregator()
	if err := s.RunContext(context.Background(), s.TicksPerDay(), func(r trace.Record) error { agg.Add(r); return nil }); err != nil {
		t.Fatal(err)
	}
	series, err := agg.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func TestBuildProfileCoversProductionRange(t *testing.T) {
	prod := productionTrace(t, 1)
	mix := sim.PoolB().Mix
	p, err := BuildProfile(prod, mix, 20, 12, 0.25)
	if err != nil {
		t.Fatalf("BuildProfile: %v", err)
	}
	if len(p.Offered) != 12 {
		t.Fatalf("levels = %d, want 12", len(p.Offered))
	}
	for i := 1; i < len(p.Offered); i++ {
		if p.Offered[i] <= p.Offered[i-1] {
			t.Fatal("offered loads must ascend")
		}
	}
	// The sweep's top level must exceed production's p99 per-server load
	// (stress extension).
	var maxProd float64
	for _, ts := range prod {
		if ts.RPSPerServer > maxProd {
			maxProd = ts.RPSPerServer
		}
	}
	topPerServer := p.Offered[len(p.Offered)-1] / float64(p.Servers)
	if topPerServer < maxProd {
		t.Errorf("sweep top %v below production max %v", topPerServer, maxProd)
	}
}

func TestBuildProfileErrors(t *testing.T) {
	prod := productionTrace(t, 2)
	mix := sim.PoolB().Mix
	if _, err := BuildProfile(prod, mix, 0, 10, 0); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := BuildProfile(prod, mix, 10, 1, 0); err == nil {
		t.Error("single level should error")
	}
	if _, err := BuildProfile(prod, mix, 10, 10, -1); err == nil {
		t.Error("negative extension should error")
	}
	if _, err := BuildProfile(prod, workload.Mix{}, 10, 10, 0); err == nil {
		t.Error("invalid mix should error")
	}
	if _, err := BuildProfile(nil, mix, 10, 10, 0); err == nil {
		t.Error("empty series should error")
	}
}

func TestReplayErrors(t *testing.T) {
	pc := sim.PoolB()
	if _, err := ReplayContext(context.Background(), pc, Profile{}, 10, 1); err == nil {
		t.Error("empty profile should error")
	}
	if _, err := ReplayContext(context.Background(), pc, Profile{Offered: []float64{1}, Servers: 5}, 0, 1); err == nil {
		t.Error("zero ticks per level should error")
	}
}
