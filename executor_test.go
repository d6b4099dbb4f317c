package headroom_test

// The shard executor as one table: every way a shard can end × both failure
// modes × a fan-out of one and of three, driven three times — the aggregate
// fan-out (Simulate) and the rows fan-out (SimulateRows, each shard planned
// where it was ingested) through the in-process shard function over
// internal/faults sources, and the rows fan-out through a fake ShardFunc
// standing in for a remote dispatch. The executor around the shard function
// (span, panic isolation, sibling cancellation, combine order, PartialError
// assembly, aggregate.shard events) is shared, so all three must come to the
// same outcome; the table also pins that outcome, and holds the rows to the
// sequential library oracle: Simulate on one shard, then Plan.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"headroom"
	"headroom/internal/faults"
	"headroom/internal/leakcheck"
)

// execPools are the three single-pool shards of the fixture; the fault
// always lands in the middle one, so survivors sit on both sides of it.
var execPools = []string{"P0", "P1", "P2"}

const execFaulted = "P1"

// execRecords interleaves the pools tick by tick, as a real trace would.
func execRecords(pools []string) []headroom.Record {
	var recs []headroom.Record
	for tick := 0; tick < 8; tick++ {
		for _, p := range pools {
			recs = append(recs, headroom.Record{
				Tick: tick, DC: "dc1", Pool: p, Server: "s1", Online: true,
				RPS: 100 + float64(tick), CPUPct: 10, LatencyMs: 20,
			})
		}
	}
	return recs
}

// shardEvent is the comparable part of one aggregate.shard event.
type shardEvent struct {
	Shard    int
	Pool     string
	Degraded bool
	Class    string
}

// execOutcome is everything the table asserts about one run.
type execOutcome struct {
	Class   string   // errClass of the returned error
	Failed  []string // "shard:pools" of PartialError.Failed, in order
	Shards  int      // PartialError.Shards
	Product []byte   // the run's product encoded (aggregate wire bytes, or rows JSON); nil when none
	Events  []shardEvent
}

// errClass folds an error into the classes the executor must preserve.
func errClass(err error) string {
	var pe *headroom.PartialError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &pe):
		return "partial"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case headroom.IsTransient(err):
		return "transient"
	case strings.Contains(err.Error(), "panicked"):
		return "panic"
	default:
		return "permanent"
	}
}

// execDo runs a session's fan-out and returns its product encoded.
type execDo func(context.Context, *headroom.Session) ([]byte, error)

// execDriver returns the session options and the fan-out of one way to drive
// a table cell; cancel is the caller's, for the cancel behaviour.
type execDriver func(cancel context.CancelFunc) ([]headroom.Option, execDo)

// execRun drives one table cell through one driver and collects its outcome.
func execRun(t *testing.T, shards int, partial bool, drive execDriver) execOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var events []shardEvent
	opts, do := drive(cancel)
	opts = append(opts,
		headroom.WithShards(shards),
		headroom.WithPartialResults(partial),
		headroom.WithObserver(func(ev headroom.StageEvent) {
			if ev.Stage != "aggregate.shard" {
				return
			}
			mu.Lock()
			events = append(events, shardEvent{Shard: ev.Shard, Pool: ev.Pool, Degraded: ev.Degraded, Class: errClass(ev.Err)})
			mu.Unlock()
		}))
	s, err := headroom.New(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	product, err := do(ctx, s)

	out := execOutcome{Class: errClass(err), Product: product}
	var pe *headroom.PartialError
	if errors.As(err, &pe) {
		out.Shards = pe.Shards
		for _, f := range pe.Failed {
			out.Failed = append(out.Failed, fmt.Sprintf("%d:%s=%s", f.Shard, strings.Join(f.Pools, ","), errClass(f.Err)))
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Shard < events[j].Shard })
	out.Events = events
	return out
}

// aggregateOf is the aggregate fan-out: Simulate, wire-encoded.
func aggregateOf(ctx context.Context, s *headroom.Session) ([]byte, error) {
	agg, err := s.Simulate(ctx, 0)
	if agg == nil {
		return nil, err
	}
	enc, encErr := headroom.EncodeAggregator(agg)
	if encErr != nil {
		return nil, encErr
	}
	return enc, err
}

// rowsOf is the rows fan-out of the plan kind over the shard function run
// builds for the session, rendered as the JSON a result carries.
func rowsOf(run func(*headroom.Session) headroom.ShardFunc[[]headroom.PoolPlan]) execDo {
	return func(ctx context.Context, s *headroom.Session) ([]byte, error) {
		rows, err := headroom.SimulateRows(ctx, s, run(s),
			func(p headroom.PoolPlan) (string, string) { return p.Pool, p.DC })
		if rows == nil {
			return nil, err
		}
		enc, encErr := json.Marshal(rows)
		if encErr != nil {
			return nil, encErr
		}
		return enc, err
	}
}

// planShard is the in-process shard of the plan kind: ingest, then plan where
// the aggregate is.
func planShard(s *headroom.Session) headroom.ShardFunc[[]headroom.PoolPlan] {
	return func(ctx context.Context, sub headroom.Source, index, of int) ([]headroom.PoolPlan, int64, error) {
		agg, n, err := headroom.IngestShard(ctx, sub, index, of)
		if err != nil {
			return nil, n, err
		}
		rows, err := s.Plan(ctx, agg)
		return rows, n, err
	}
}

// localDriver is the in-process shard function over a fault-injected replay
// source. The cancel behaviour stalls the faulted pool's stream and cancels
// the caller once the stall has begun.
func localDriver(behaviour string, do execDo) execDriver {
	return func(cancel context.CancelFunc) ([]headroom.Option, execDo) {
		src := headroom.Source(headroom.NewReplaySource(execRecords(execPools)))
		if behaviour != "ok" {
			rule := faults.Rule{Pools: []string{execFaulted}, At: []int{2}}
			switch behaviour {
			case "permanent":
				rule.Kind = faults.Permanent
			case "transient":
				rule.Kind = faults.Transient
			case "panic":
				rule.Kind = faults.Panic
			case "cancel":
				rule.Kind, rule.StallFor = faults.Stall, time.Minute
			}
			inj := faults.New(3, rule)
			src = inj.Source(src)
			if behaviour == "cancel" {
				go func() {
					for inj.Injected() == 0 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
		}
		return []headroom.Option{headroom.WithSource(src)}, do
	}
}

// fakeDriver replaces shard execution the way a dist coordinator does: the
// source only defines the split, and a stand-in answers (or fails) each shard
// with the rows a worker would send back.
func fakeDriver(behaviour string) execDriver {
	return func(cancel context.CancelFunc) ([]headroom.Option, execDo) {
		run := func(ctx context.Context, sub headroom.Source, index, of int) ([]headroom.PoolPlan, int64, error) {
			pools := sub.(headroom.PoolNamer).PoolNames()
			faulted := false
			for _, p := range pools {
				faulted = faulted || p == execFaulted
			}
			if faulted {
				switch behaviour {
				case "permanent":
					return nil, 0, errors.New("worker rejected the shard")
				case "transient":
					return nil, 0, headroom.Transient(errors.New("worker unreachable"))
				case "panic":
					panic("runner crashed")
				case "cancel":
					cancel()
					<-ctx.Done()
					return nil, 0, ctx.Err()
				}
			}
			return workerRows(ctx, pools)
		}
		return []headroom.Option{headroom.WithSource(headroom.NewReplaySource(execRecords(execPools)))},
			rowsOf(func(*headroom.Session) headroom.ShardFunc[[]headroom.PoolPlan] { return run })
	}
}

// workerRows is what a worker answers for a fault-free shard of the given
// pools: the shard run on a session of its own, its rows through the JSON wire.
func workerRows(ctx context.Context, pools []string) ([]headroom.PoolPlan, int64, error) {
	s, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(execRecords(pools))))
	if err != nil {
		return nil, 0, err
	}
	rows, n, err := headroom.RunShard(ctx, s, 0, 1, planShard(s))
	if err != nil {
		return nil, n, err
	}
	wire, err := json.Marshal(rows)
	if err != nil {
		return nil, n, err
	}
	rows = nil
	return rows, n, json.Unmarshal(wire, &rows)
}

func TestShardExecutorTable(t *testing.T) {
	leakcheck.Check(t)
	// The oracle: the given pools' records on one shard — wire bytes of the
	// aggregate, and JSON of the plan over it.
	oracle := func(pools ...string) (agg, rows []byte) {
		t.Helper()
		s, err := headroom.New(context.Background(),
			headroom.WithSource(headroom.NewReplaySource(execRecords(pools))), headroom.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.Simulate(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if agg, err = headroom.EncodeAggregator(a); err != nil {
			t.Fatal(err)
		}
		plans, err := s.Plan(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err = json.Marshal(plans); err != nil {
			t.Fatal(err)
		}
		return agg, rows
	}
	wholeAgg, wholeRows := oracle(execPools...)
	survivorAgg, survivorRows := oracle("P0", "P2")

	for _, behaviour := range []string{"ok", "permanent", "transient", "panic", "cancel"} {
		for _, partial := range []bool{true, false} {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/partial=%v/shards=%d", behaviour, partial, shards)
				t.Run(name, func(t *testing.T) {
					outcomes := map[string]execOutcome{
						"local aggregate": execRun(t, shards, partial, localDriver(behaviour, aggregateOf)),
						"local rows":      execRun(t, shards, partial, localDriver(behaviour, rowsOf(planShard))),
						"fake rows":       execRun(t, shards, partial, fakeDriver(behaviour)),
					}

					// What the table says the run must come to.
					want := execOutcome{Class: behaviour}
					var wantAgg, wantRows []byte
					faultedShard, faultedPools := 1, execFaulted
					if shards == 1 {
						faultedShard, faultedPools = 0, strings.Join(execPools, ",")
					}
					switch {
					case behaviour == "ok":
						wantAgg, wantRows = wholeAgg, wholeRows
					case behaviour == "cancel":
						// Caller cancellation fails the run whole in both modes.
						want.Class = "cancelled"
					case partial:
						want.Class, want.Shards = "partial", shards
						want.Failed = []string{fmt.Sprintf("%d:%s=%s", faultedShard, faultedPools, behaviour)}
						if shards == 3 {
							wantAgg, wantRows = survivorAgg, survivorRows // none when the only shard failed
						}
					}
					for driver, got := range outcomes {
						if got.Class != want.Class || got.Shards != want.Shards || !reflect.DeepEqual(got.Failed, want.Failed) {
							t.Errorf("%s: outcome = %s %d %v, want %s %d %v", driver,
								got.Class, got.Shards, got.Failed, want.Class, want.Shards, want.Failed)
						}
						wantProduct := wantRows
						if driver == "local aggregate" {
							wantProduct = wantAgg
						}
						if !bytes.Equal(got.Product, wantProduct) {
							t.Errorf("%s: product = %d bytes, want the one-shard oracle's %d (survivors combined in shard order)\n got: %.200s\nwant: %.200s",
								driver, len(got.Product), len(wantProduct), got.Product, wantProduct)
						}
						// One aggregate.shard event per shard; the faulted
						// shard's names its pools, class and degradation.
						if len(got.Events) != shards {
							t.Fatalf("%s: %d aggregate.shard events, want %d: %+v", driver, len(got.Events), shards, got.Events)
						}
						wantEv := shardEvent{Shard: faultedShard, Pool: faultedPools, Class: behaviour, Degraded: partial && behaviour != "ok"}
						if behaviour == "cancel" {
							wantEv.Class = "cancelled"
						}
						if ev := got.Events[faultedShard]; ev != wantEv {
							t.Errorf("%s: faulted shard event = %+v, want %+v", driver, ev, wantEv)
						}
					}
					// Siblings race a cancellation — the caller's, or in
					// fail-whole mode the failed shard's; everywhere else
					// every event must agree across drivers.
					if behaviour == "ok" || (partial && behaviour != "cancel") {
						ref := outcomes["local aggregate"].Events
						for driver, got := range outcomes {
							if !reflect.DeepEqual(got.Events, ref) {
								t.Errorf("events differ across drivers:\n local aggregate: %+v\n %s: %+v", ref, driver, got.Events)
							}
						}
					}
				})
			}
		}
	}
}
