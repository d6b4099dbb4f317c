package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"headroom/internal/metrics"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// busyFleet exercises every branch of a step: two pools over two
// datacenters with different server counts, planned maintenance, off-peak
// repurposing, a certain incident at each day boundary, spikes, background
// tasks and errors, plus capacity and deployment actions.
func busyFleet() (FleetConfig, []Action) {
	p, q := tinyPool(9), tinyPool(5)
	p.Servers = map[string]int{"DC 1": 9, "DC 4": 4}
	p.Availability = AvailabilityProfile{
		PlannedDailyFrac: 0.1, RepurposedOffPeakFrac: 0.3,
		IncidentProb: 1, IncidentFrac: 0.4, IncidentTicks: 25,
	}
	p.Response.SpikeProb, p.Response.SpikeAmp = 0.05, 20
	p.Response.BackgroundPeriodTicks, p.Response.BackgroundDurTicks = 40, 6
	p.Response.BackgroundCPU, p.Response.BackgroundNetBytes = 8, 5e5
	p.Response.ErrorRate = 0.02
	q.Name = "U"
	q.Availability = AvailabilityProfile{PlannedDailyFrac: 0.05}
	cfg := smallFleet(77, p)
	cfg.Pools = []PoolConfig{p, q}
	return cfg, []Action{
		{Pool: "T", DC: "DC 1", Tick: 100, SetServers: 6},
		{Pool: "T", DC: "DC 1", Tick: 300, CPUInterceptDelta: 1.5},
		{Pool: "T", DC: "DC 1", Tick: 500, SetServers: 9},
		{Pool: "U", DC: "DC 1", Tick: 50, SetServers: 2},
	}
}

const busyTicks = 800 // crosses a day boundary (720 windows)

func streamHash(recs []trace.Record) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunStepsMatchesPerRecordRun: the per-record adapter and the step path
// deliver the same records in the same order, every step is one
// (pool, datacenter, tick), and the stream is the one the per-record
// simulator produced before steps existed (the pinned hash was taken from it;
// when busyFleet's actions changed, it was retaken by running the new
// actions on the code before that change).
func TestRunStepsMatchesPerRecordRun(t *testing.T) {
	cfg, actions := busyFleet()
	perRecord, err := New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Record
	if err := perRecord.RunContext(context.Background(), busyTicks, func(r trace.Record) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stepped, err := New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	var offline int
	if err := stepped.RunSteps(context.Background(), busyTicks, func(step []trace.Record) error {
		for _, r := range step {
			if r.Pool != step[0].Pool || r.DC != step[0].DC || r.Tick != step[0].Tick {
				t.Fatalf("step mixes %s@%s tick %d with %s@%s tick %d", step[0].Pool, step[0].DC, step[0].Tick, r.Pool, r.DC, r.Tick)
			}
			if !r.Online {
				offline++
			}
		}
		got = append(got, step...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("step path emitted %d records, per-record path %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n step path %+v\n per-record %+v", i, got[i], want[i])
		}
	}
	if offline == 0 || offline == len(got) {
		t.Fatalf("%d of %d records offline: the fleet does not exercise availability", offline, len(got))
	}
	const pinned = "aa1a2288107742a3f1a3ffbeb0f052072cddcbe7ed415d4eb2c5e1b425d65b4e"
	if h := streamHash(got); h != pinned {
		t.Errorf("stream hash %s, want %s: record values or random-draw order changed", h, pinned)
	}
}

// TestSimulatePoolSeriesPinned: the offline harness's per-tick series, every
// field of every TickStat by its bits, at three pool sizes and two seeds over
// a rising load, is the one the harness produced when it still built every
// record and ingested them through AddAll (pinned hash).
func TestSimulatePoolSeriesPinned(t *testing.T) {
	cfg, _ := busyFleet()
	offered := make([]float64, 60)
	for i := range offered {
		offered[i] = 200 + 35*float64(i)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, servers := range []int{1, 7, 300} {
		for _, seed := range []int64{1, 5} {
			series, err := SimulatePoolSeries(context.Background(), cfg.Pools[0], "offline", offered, servers, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(series) != len(offered) {
				t.Fatalf("%d servers, seed %d: %d ticks, want %d", servers, seed, len(series), len(offered))
			}
			for _, ts := range series {
				put(uint64(ts.Tick))
				put(uint64(ts.Servers))
				for _, v := range [...]float64{ts.TotalRPS, ts.RPSPerServer, ts.CPUMean, ts.LatencyMean,
					ts.NetBytes, ts.NetPkts, ts.MemPages, ts.DiskQueue, ts.DiskRead, ts.Errors} {
					put(math.Float64bits(v))
				}
			}
		}
	}
	const pinned = "83b81fb9e3885b4091a742f28b372b4bc25ac16a596a6daa4325e475a873fb04"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinned {
		t.Errorf("series hash %s, want %s: offline values or random-draw order changed", got, pinned)
	}
}

// TestStepPoolDCDoesNotAllocate: once the step buffer has reached the size of
// the largest pool, a step allocates nothing.
func TestStepPoolDCDoesNotAllocate(t *testing.T) {
	cfg, actions := busyFleet()
	s, err := New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	tick := 0
	stepAll := func() {
		for _, ps := range s.pools {
			for di, st := range ps.perDC {
				if st == nil {
					continue
				}
				if _, err := s.stepPoolDC(ps, st, di, tick); err != nil {
					t.Fatal(err)
				}
			}
		}
		tick++
	}
	stepAll() // warm-up: the buffer grows here
	if allocs := testing.AllocsPerRun(workload.TicksPerDay(cfg.Tick), stepAll); allocs != 0 {
		t.Errorf("%v allocations per tick of steps, want 0", allocs)
	}
}

// TestIngestStepDoesNotAllocate: into an aggregator sized for the horizon,
// a further tick of steps — generated and ingested — allocates nothing once
// the first tick has met every server.
func TestIngestStepDoesNotAllocate(t *testing.T) {
	cfg, actions := busyFleet()
	s, err := New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	agg := metrics.NewAggregatorFor(2 + runs) // the first tick, AllocsPerRun's warm-up, the runs
	tick := 0
	ingestTick := func() {
		for _, ps := range s.pools {
			for di, st := range ps.perDC {
				if st == nil {
					continue
				}
				step, err := s.stepPoolDC(ps, st, di, tick)
				if err != nil {
					t.Fatal(err)
				}
				agg.AddAll(step)
			}
		}
		tick++
	}
	ingestTick()
	if allocs := testing.AllocsPerRun(runs, ingestTick); allocs != 0 {
		t.Errorf("%v allocations per tick of ingested steps, want 0", allocs)
	}
}

// TestWriteStepDoesNotAllocate: into an aggregator sized for the horizon, a
// further tick of steps written by index — advanced and written — allocates
// nothing once the first tick has made every pool's writer.
func TestWriteStepDoesNotAllocate(t *testing.T) {
	cfg, actions := busyFleet()
	s, err := New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	agg := metrics.NewAggregatorFor(2 + runs) // the first tick, AllocsPerRun's warm-up, the runs
	var writers []*metrics.PoolWriter         // by step within a tick
	var rec trace.Record
	tick := 0
	writeTick := func() {
		at := 0
		for _, ps := range s.pools {
			for di, st := range ps.perDC {
				if st == nil {
					continue
				}
				if at == len(writers) {
					writers = append(writers, st.writer(agg, ps.cfg.Name))
				}
				offered, err := s.advance(ps, st, di, tick)
				if err != nil {
					t.Fatal(err)
				}
				s.writeStep(writers[at], ps, st, tick, offered, &rec)
				at++
			}
		}
		tick++
	}
	writeTick()
	if allocs := testing.AllocsPerRun(runs, writeTick); allocs != 0 {
		t.Errorf("%v allocations per tick of written steps, want 0", allocs)
	}
}

// validateCapRun is one offline run at the largest validate request the
// server accepts: 25 load levels of 20 ticks each on 500 of pool B's servers.
func validateCapRun(tb testing.TB) (PoolConfig, []float64, int) {
	tb.Helper()
	pool, err := NamedPool(DefaultFleet(1), "B")
	if err != nil {
		tb.Fatal(err)
	}
	const levels, ticksPerLevel, servers = 25, 20, 500
	offered := make([]float64, 0, levels*ticksPerLevel)
	for l := 0; l < levels; l++ {
		for r := 0; r < ticksPerLevel; r++ {
			offered = append(offered, servers*(100+15*float64(l)))
		}
	}
	return pool, offered, servers
}

// TestSimulatePoolSeriesMemoryBounded: an offline run at validate's cap
// keeps no record of its 250 000 server-windows; what it allocates is about
// its sample block (2 MB) and its servers.
func TestSimulatePoolSeriesMemoryBounded(t *testing.T) {
	pool, offered, servers := validateCapRun(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	series, err := SimulatePoolSeries(context.Background(), pool, "offline", offered, servers, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(offered) {
		t.Fatalf("%d ticks, want %d", len(series), len(offered))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("one run at validate's cap allocated %.1f MB, want under 8 MB", float64(got)/(1<<20))
	}
}

// BenchmarkSimulatePoolSeries is one offline run at validate's cap.
func BenchmarkSimulatePoolSeries(b *testing.B) {
	pool, offered, servers := validateCapRun(b)
	for i := 0; i < b.N; i++ {
		if _, err := SimulatePoolSeries(context.Background(), pool, "offline", offered, servers, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNonNegIsMathMax: nonNeg(x) is math.Max(0, x) bit for bit, and NaN for
// NaN.
func TestNonNegIsMathMax(t *testing.T) {
	for _, x := range []float64{
		math.Copysign(0, -1), 0, -1, 1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		got, want := nonNeg(x), math.Max(0, x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("nonNeg(%v) = %v, want NaN", x, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("nonNeg(%v) = %v (%#x), want %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
