package headroom_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"headroom"
	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/trace"
)

// ingestPathsFleet is the whole default fleet — all 20 pools, so incidents,
// repurposing, background load and spikes all run — with a capacity cut and a
// deployment, over two days.
func ingestPathsFleet(seed int64) (sim.FleetConfig, []sim.Action, int) {
	cfg := sim.DefaultFleet(seed)
	actions := []sim.Action{
		{Pool: "B", DC: "DC 4", Tick: 500, SetServers: 170},
		{Pool: "A", DC: "DC 1", Tick: 900, CPUInterceptDelta: 2.5},
	}
	return cfg, actions, 2 * 720
}

// TestSimAggregateMatchesAddAll: the simulator's by-index driver, into the
// aggregator it sizes to the horizon (a day at most), and the record
// path (AddAll over RunSteps' steps, unsized as a trace's) leave aggregators
// that encode to the same bytes.
func TestSimAggregateMatchesAddAll(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			cfg, actions, ticks := ingestPathsFleet(seed)
			encode := func(feed func(*sim.Simulator) (*metrics.Aggregator, error)) []byte {
				t.Helper()
				s, err := sim.New(cfg, actions...)
				if err != nil {
					t.Fatal(err)
				}
				agg, err := feed(s)
				if err != nil {
					t.Fatal(err)
				}
				b, err := headroom.EncodeAggregator(agg)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var records int
			want := encode(func(s *sim.Simulator) (*metrics.Aggregator, error) {
				agg := metrics.NewAggregator()
				return agg, s.RunSteps(ctx, ticks, func(step []trace.Record) error {
					records += len(step)
					agg.AddAll(step)
					return nil
				})
			})
			var n int64
			got := encode(func(s *sim.Simulator) (agg *metrics.Aggregator, err error) {
				agg, n, err = s.Aggregate(ctx, ticks)
				return agg, err
			})
			if !bytes.Equal(got, want) {
				t.Errorf("Aggregate's %d bytes differ from AddAll's %d", len(got), len(want))
			}
			if n != int64(records) || records != ticks*sim.TotalServers(cfg) {
				t.Errorf("Aggregate counted %d records, the steps held %d, the fleet has %d server-windows",
					n, records, ticks*sim.TotalServers(cfg))
			}
		})
	}
}

// stepBudgetCtx is a context that reports itself cancelled from the
// (budget+1)-th check of Err on: a cancellation that lands mid-run.
type stepBudgetCtx struct {
	context.Context
	budget int
}

func (c *stepBudgetCtx) Err() error {
	if c.budget == 0 {
		return context.Canceled
	}
	c.budget--
	return nil
}

// TestSimAggregateCancelledMidRun: a context cancelled mid-run stops the
// driver at its next step, which returns ctx.Err().
func TestSimAggregateCancelledMidRun(t *testing.T) {
	cfg, actions, ticks := ingestPathsFleet(1)
	s, err := sim.New(cfg, actions...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &stepBudgetCtx{Context: context.Background(), budget: 1000}
	_, n, err := s.Aggregate(ctx, ticks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n == 0 || n >= int64(ticks*sim.TotalServers(cfg)) {
		t.Errorf("cancelled after %d records, want some but not all", n)
	}
}
