package synth

import (
	"context"
	"math"
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
	p, err := BuildProfile(prod, 20, 12, 0.25)
	if err != nil {
		t.Fatalf("BuildProfile: %v", err)
	}
	if len(p.Loads) != 12 || p.Servers != 20 {
		t.Fatalf("profile = %d levels at %d servers, want 12 at 20", len(p.Loads), p.Servers)
	}
	// The sweep's top level must exceed production's p99 per-server load
	// (stress extension).
	var maxProd float64
	for _, ts := range prod {
		maxProd = max(maxProd, ts.RPSPerServer)
	}
	if top := p.Loads[len(p.Loads)-1]; top < maxProd {
		t.Errorf("sweep top %v below production max %v", top, maxProd)
	}
}

func TestBuildProfileErrors(t *testing.T) {
	prod := productionTrace(t, 2)
	if _, err := BuildProfile(prod, 0, 10, 0); err == nil {
		t.Error("zero servers should error")
	}
	if _, err := BuildProfile(prod, 10, 1, 0); err == nil {
		t.Error("single level should error")
	}
	if _, err := BuildProfile(prod, 10, -3, 0); err == nil {
		t.Error("negative level count should error")
	}
	if _, err := BuildProfile(prod, 10, 10, -1); err == nil {
		t.Error("negative extension should error")
	}
	if _, err := BuildProfile(nil, 10, 10, 0); err == nil {
		t.Error("empty series should error")
	}
}

// TestReplayRunsEveryLevel checks the replay's shape: ticksPerLevel windows
// per level, in level order, each near the level's per-server load (the
// pool's servers do not all take an equal share of it).
func TestReplayRunsEveryLevel(t *testing.T) {
	p := Profile{Loads: []float64{50, 150, 250}, Servers: 4}
	series, err := Replay(context.Background(), sim.PoolB(), "offline", p, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 15 {
		t.Fatalf("windows = %d, want 15", len(series))
	}
	for i, ts := range series {
		want := p.Loads[i/5]
		if ts.Servers != 4 || math.Abs(ts.RPSPerServer-want) > 0.05*want {
			t.Errorf("window %d: %d servers at %v rps/server, want 4 at %v", i, ts.Servers, ts.RPSPerServer, want)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	pc := sim.PoolB()
	ctx := context.Background()
	for name, p := range map[string]Profile{
		"empty":         {},
		"zero servers":  {Loads: []float64{1, 2}},
		"single level":  {Loads: []float64{1}, Servers: 5},
		"descending":    {Loads: []float64{1, 3, 2}, Servers: 5},
		"repeated":      {Loads: []float64{1, 1}, Servers: 5},
		"one ulp apart": {Loads: []float64{100, 100.00000000000001}, Servers: 10},
		"NaN":           {Loads: []float64{1, math.NaN()}, Servers: 5},
	} {
		if _, err := Replay(ctx, pc, "offline", p, 10, 1); err == nil {
			t.Errorf("%s profile should error", name)
		}
	}
	if _, err := Replay(ctx, pc, "offline", Profile{Loads: []float64{1, 2}, Servers: 5}, 0, 1); err == nil {
		t.Error("zero ticks per level should error")
	}
}

// TestClosestLevelsGiveDistinctWindows holds LevelRatio to its claim: at the
// closest spacing Check accepts, every window of the upper level shows more
// RPS/server than every window of the lower one, from the least load a
// validation takes to the largest, on one server and on a thousand.
func TestClosestLevelsGiveDistinctWindows(t *testing.T) {
	for _, servers := range []int{1, 2, 10, 1000} {
		for e := -6; e <= 5; e++ {
			for _, m := range []float64{1, 3} {
				lo := m * math.Pow(10, float64(e))
				hi := math.Nextafter(lo*LevelRatio(servers), math.Inf(1))
				p := Profile{Loads: []float64{lo, hi}, Servers: servers}
				series, err := Replay(context.Background(), sim.PoolB(), "offline", p, 2, 1)
				if err != nil {
					t.Fatalf("%v: %v", p.Loads, err)
				}
				if top := max(series[0].RPSPerServer, series[1].RPSPerServer); top >= min(series[2].RPSPerServer, series[3].RPSPerServer) {
					t.Errorf("%d servers, loads %v: windows %v, %v, %v, %v do not tell the levels apart", servers, p.Loads,
						series[0].RPSPerServer, series[1].RPSPerServer, series[2].RPSPerServer, series[3].RPSPerServer)
				}
			}
		}
	}
}
