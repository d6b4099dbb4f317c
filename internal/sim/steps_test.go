package sim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

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
		{Pool: "T", DC: "DC 1", Tick: 300, CPUInterceptDelta: 1.5, LatencyDelta: 2},
		{Pool: "T", DC: "DC 1", Tick: 500, RestoreServers: true},
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
// simulator produced before steps existed (the pinned hash was taken from it).
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
	const pinned = "d1a36c2ccec8be1bb0c97a2fef74173cf7568f7062ea8a5f4c1d07e42d91fc13"
	if h := streamHash(got); h != pinned {
		t.Errorf("stream hash %s, want %s: record values or random-draw order changed", h, pinned)
	}
}

// TestSimulatePoolStreamPinned: the offline harness shares the fleet's step
// code; its records are the ones its own loop produced before (pinned hash).
func TestSimulatePoolStreamPinned(t *testing.T) {
	cfg, _ := busyFleet()
	offered := make([]float64, 60)
	for i := range offered {
		offered[i] = 200 + 35*float64(i)
	}
	recs, err := SimulatePoolContext(context.Background(), cfg.Pools[0], "offline", offered, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 60*7 {
		t.Fatalf("records = %d, want %d", len(recs), 60*7)
	}
	const pinned = "a9f1760143d895848735ffbed2533079722a268619ebdb37fff9756419f5b0ba"
	if h := streamHash(recs); h != pinned {
		t.Errorf("stream hash %s, want %s", h, pinned)
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
