package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"headroom/internal/stats"
	"headroom/internal/trace"
)

func rec(tick int, dc, pool, server string, online bool, rps, cpu, lat float64) trace.Record {
	return trace.Record{
		Tick: tick, DC: dc, Pool: pool, Server: server, Generation: "gen1",
		Online: online, RPS: rps, CPUPct: cpu, LatencyMs: lat,
		NetBytes: rps * 100, NetPkts: rps, MemPages: 10, DiskQueue: 1, DiskRead: 20, Errors: 0,
	}
}

func TestPoolSeriesAggregation(t *testing.T) {
	a := NewAggregator()
	a.AddAll([]trace.Record{
		rec(0, "DC 1", "B", "s1", true, 100, 10, 30),
		rec(0, "DC 1", "B", "s2", true, 200, 20, 40),
		rec(0, "DC 1", "B", "s3", false, 0, 0, 0), // offline: excluded
		rec(1, "DC 1", "B", "s1", true, 300, 30, 50),
	})
	series, err := a.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatalf("PoolSeries: %v", err)
	}
	if len(series) != 2 {
		t.Fatalf("len = %d, want 2", len(series))
	}
	t0 := series[0]
	if t0.Tick != 0 || t0.Servers != 2 {
		t.Errorf("t0 = %+v, want tick 0 with 2 servers", t0)
	}
	if t0.TotalRPS != 300 || t0.RPSPerServer != 150 {
		t.Errorf("t0 RPS = %v total / %v per server, want 300/150", t0.TotalRPS, t0.RPSPerServer)
	}
	if t0.CPUMean != 15 || t0.LatencyMean != 35 {
		t.Errorf("t0 cpu/lat = %v/%v, want 15/35", t0.CPUMean, t0.LatencyMean)
	}
	if t0.NetBytes != 15000 {
		t.Errorf("t0 NetBytes = %v, want 15000", t0.NetBytes)
	}
	t1 := series[1]
	if t1.Tick != 1 || t1.Servers != 1 || t1.TotalRPS != 300 {
		t.Errorf("t1 = %+v", t1)
	}
}

func TestPoolSeriesUnknownPool(t *testing.T) {
	a := NewAggregator()
	if _, err := a.PoolSeries("DC 1", "nope"); err == nil {
		t.Error("unknown pool should error")
	}
}

// ServerSummaries' per-server work runs 1 890 times per default-fleet plan;
// on a Selector that has already seen a day of samples it must not allocate.
func TestSummarizeServerDoesNotAllocate(t *testing.T) {
	acc := &serverAcc{name: "s1", generation: "gen1", online: 720, windows: 720}
	rng := rand.New(rand.NewSource(16))
	var cpu []float64
	for i := 0; i < 720; i++ {
		cpu = append(cpu, 40+12*rng.NormFloat64())
	}
	var sel stats.Selector
	want := summarizeServer(&sel, acc, cpu)
	if want.CPU.N != 720 || want.R2 == 0 {
		t.Fatalf("summary not computed: %+v", want)
	}
	var got ServerSummary
	if allocs := testing.AllocsPerRun(50, func() { got = summarizeServer(&sel, acc, cpu) }); allocs != 0 {
		t.Errorf("summarizeServer on a warmed Selector allocated %v times per run", allocs)
	}
	if got != want {
		t.Errorf("reused Selector changed the summary:\n got %+v\nwant %+v", got, want)
	}
}

func TestServerSummaries(t *testing.T) {
	a := NewAggregator()
	// s1: online all 4 windows with varied CPU; s2: online half.
	cpus := []float64{10, 20, 30, 40}
	for i, c := range cpus {
		a.Add(rec(i, "DC 1", "B", "s1", true, 100, c, 30))
		a.Add(rec(i, "DC 1", "B", "s2", i < 2, 100, 15, 30))
	}
	sums, err := a.ServerSummaries("DC 1", "B")
	if err != nil {
		t.Fatalf("ServerSummaries: %v", err)
	}
	if len(sums) != 2 {
		t.Fatalf("len = %d, want 2", len(sums))
	}
	s1 := sums[0]
	if s1.Server != "s1" {
		t.Fatalf("order: got %q first, want s1", s1.Server)
	}
	if s1.Availability != 1 || s1.Windows != 4 {
		t.Errorf("s1 availability = %v/%d windows", s1.Availability, s1.Windows)
	}
	if s1.CPU.Mean != 25 {
		t.Errorf("s1 mean CPU = %v, want 25", s1.CPU.Mean)
	}
	if s1.CPU.P95 <= s1.CPU.P5 {
		t.Errorf("s1 percentiles degenerate: %+v", s1.CPU)
	}
	// Percentile curve of increasing CPU has positive slope and strong R2.
	if s1.Slope <= 0 || s1.R2 < 0.9 {
		t.Errorf("s1 slope/R2 = %v/%v", s1.Slope, s1.R2)
	}
	fv := s1.FeatureVector()
	if len(fv) != 8 {
		t.Errorf("feature vector length = %d, want 8", len(fv))
	}
	s2 := sums[1]
	if math.Abs(s2.Availability-0.5) > 1e-12 {
		t.Errorf("s2 availability = %v, want 0.5", s2.Availability)
	}
	// Constant CPU: slope ~0, P95 == P5.
	if math.Abs(s2.Slope) > 1e-9 {
		t.Errorf("s2 slope = %v, want 0", s2.Slope)
	}
}

func TestPoolAvailability(t *testing.T) {
	a := NewAggregator()
	// 2 servers, 2 ticks/day, 2 days. Day 0: both online both ticks.
	// Day 1: one server offline in both ticks.
	for tick := 0; tick < 4; tick++ {
		a.Add(rec(tick, "DC 1", "C", "s1", true, 10, 5, 20))
		a.Add(rec(tick, "DC 1", "C", "s2", tick < 2, 10, 5, 20))
	}
	av, err := a.PoolAvailability("DC 1", "C", 2)
	if err != nil {
		t.Fatalf("PoolAvailability: %v", err)
	}
	if len(av) != 2 {
		t.Fatalf("days = %d, want 2", len(av))
	}
	if av[0] != 1 || av[1] != 0.5 {
		t.Errorf("availability = %v, want [1, 0.5]", av)
	}

	// Windows with no server online count as 0, the last day's too. Pool E,
	// 2 ticks/day, 3 days: day 0 both online then both offline, day 1 one
	// online then none, day 2 none.
	for tick, up := range [][2]bool{{true, true}, {}, {true, false}, {}, {}, {}} {
		a.Add(rec(tick, "DC 1", "E", "s1", up[0], 10, 5, 20))
		a.Add(rec(tick, "DC 1", "E", "s2", up[1], 10, 5, 20))
	}
	av, err = a.PoolAvailability("DC 1", "E", 2)
	if err != nil {
		t.Fatalf("PoolAvailability: %v", err)
	}
	if want := []float64{0.5, 0.25, 0}; !slices.Equal(av, want) {
		t.Errorf("availability with all-offline windows = %v, want %v", av, want)
	}
	if _, err := a.PoolAvailability("DC 1", "C", 0); err == nil {
		t.Error("non-positive ticksPerDay should error")
	}
	if _, err := a.PoolAvailability("DC 9", "C", 2); err == nil {
		t.Error("unknown pool should error")
	}
}

func TestPoolsSortedAndMerged(t *testing.T) {
	a := NewAggregator()
	a.Add(rec(0, "DC 2", "B", "s1", true, 1, 1, 1))
	a.Add(rec(0, "DC 1", "B", "s2", true, 1, 1, 1))
	a.Add(rec(0, "DC 1", "A", "s3", true, 1, 1, 1))
	keys := a.Pools()
	want := []PoolKey{{DC: "DC 1", Pool: "A"}, {DC: "DC 1", Pool: "B"}, {DC: "DC 2", Pool: "B"}}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
	if keys[0].String() != "A@DC 1" {
		t.Errorf("String = %q", keys[0].String())
	}
}

func TestOfflineOnlyTickProducesNoTickStat(t *testing.T) {
	a := NewAggregator()
	a.Add(rec(0, "DC 1", "B", "s1", false, 0, 0, 0))
	series, err := a.PoolSeries("DC 1", "B")
	if err != nil {
		t.Fatalf("PoolSeries: %v", err)
	}
	if len(series) != 0 {
		t.Errorf("series = %v, want empty (offline windows carry no load)", series)
	}
	sums, err := a.ServerSummaries("DC 1", "B")
	if err != nil {
		t.Fatalf("ServerSummaries: %v", err)
	}
	if sums[0].Availability != 0 || sums[0].Windows != 1 {
		t.Errorf("offline-only summary = %+v", sums[0])
	}
}
