package headroom_test

// The shard executor as one table: every way a shard can end × both failure
// modes × a fan-out of one and of three, driven twice — through the default
// in-process runner over internal/faults sources, and through a fake
// ShardRunner standing in for a remote dispatch. The executor around the
// runner (span, panic isolation, sibling cancellation, merge order,
// PartialError assembly, aggregate.shard events) is shared, so both runners
// must produce the same outcome; the table also pins that outcome.

import (
	"bytes"
	"context"
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
	Class  string   // errClass of the returned error
	Failed []string // "shard:pools" of PartialError.Failed, in order
	Shards int      // PartialError.Shards
	Agg    []byte   // wire encoding of the returned aggregate, nil when none
	Events []shardEvent
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

// execRun drives one table cell through one runner and collects its outcome.
// build returns the session options for the runner under test; cancel is
// the caller's, for the cancel behaviour.
func execRun(t *testing.T, shards int, partial bool, build func(cancel context.CancelFunc) []headroom.Option) execOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var events []shardEvent
	opts := append(build(cancel),
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
	agg, err := s.Simulate(ctx, 0)

	out := execOutcome{Class: errClass(err)}
	var pe *headroom.PartialError
	if errors.As(err, &pe) {
		out.Shards = pe.Shards
		for _, f := range pe.Failed {
			out.Failed = append(out.Failed, fmt.Sprintf("%d:%s=%s", f.Shard, strings.Join(f.Pools, ","), errClass(f.Err)))
		}
	}
	if agg != nil {
		if out.Agg, err = headroom.EncodeAggregator(agg); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Shard < events[j].Shard })
	out.Events = events
	return out
}

// localRunner is the default in-process runner over a fault-injected replay
// source. The cancel behaviour stalls the faulted pool's stream and cancels
// the caller once the stall has begun.
func localRunner(behaviour string) func(context.CancelFunc) []headroom.Option {
	return func(cancel context.CancelFunc) []headroom.Option {
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
		return []headroom.Option{headroom.WithSource(src)}
	}
}

// fakeRunner replaces shard execution the way a dist coordinator does: the
// source only defines the split, and a stand-in computes (or fails) each
// shard.
func fakeRunner(behaviour string) func(context.CancelFunc) []headroom.Option {
	return func(cancel context.CancelFunc) []headroom.Option {
		run := func(ctx context.Context, sub headroom.Source, index, of int) (*headroom.Aggregator, int64, error) {
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
			return execAggregate(ctx, pools) // what a worker would send back
		}
		return []headroom.Option{
			headroom.WithSource(headroom.NewReplaySource(execRecords(execPools))),
			headroom.WithShardRunner(run),
		}
	}
}

// execAggregate is the fault-free aggregate of the given pools' records.
func execAggregate(ctx context.Context, pools []string) (*headroom.Aggregator, int64, error) {
	s, err := headroom.New(ctx, headroom.WithSource(headroom.NewReplaySource(execRecords(pools))))
	if err != nil {
		return nil, 0, err
	}
	return s.AggregateShard(ctx, 0, 1)
}

func TestShardExecutorTable(t *testing.T) {
	leakcheck.Check(t)
	encode := func(pools ...string) []byte {
		t.Helper()
		agg, _, err := execAggregate(context.Background(), pools)
		if err != nil {
			t.Fatal(err)
		}
		b, err := headroom.EncodeAggregator(agg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	whole, survivors := encode(execPools...), encode("P0", "P2")

	for _, behaviour := range []string{"ok", "permanent", "transient", "panic", "cancel"} {
		for _, partial := range []bool{true, false} {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/partial=%v/shards=%d", behaviour, partial, shards)
				t.Run(name, func(t *testing.T) {
					local := execRun(t, shards, partial, localRunner(behaviour))
					fake := execRun(t, shards, partial, fakeRunner(behaviour))

					// What the table says the run must come to.
					want := execOutcome{Class: behaviour}
					faultedShard, faultedPools := 1, execFaulted
					if shards == 1 {
						faultedShard, faultedPools = 0, strings.Join(execPools, ",")
					}
					switch {
					case behaviour == "ok":
						want.Agg = whole
					case behaviour == "cancel":
						// Caller cancellation fails the run whole in both modes.
						want.Class = "cancelled"
					case partial:
						want.Class, want.Shards = "partial", shards
						want.Failed = []string{fmt.Sprintf("%d:%s=%s", faultedShard, faultedPools, behaviour)}
						if shards == 3 {
							want.Agg = survivors // nil when the only shard failed
						}
					}
					for runner, got := range map[string]execOutcome{"local": local, "fake": fake} {
						if got.Class != want.Class || got.Shards != want.Shards || !reflect.DeepEqual(got.Failed, want.Failed) {
							t.Errorf("%s runner: outcome = %s %d %v, want %s %d %v", runner,
								got.Class, got.Shards, got.Failed, want.Class, want.Shards, want.Failed)
						}
						if !bytes.Equal(got.Agg, want.Agg) {
							t.Errorf("%s runner: aggregate = %d bytes, want %d (survivors merged in shard order)", runner, len(got.Agg), len(want.Agg))
						}
						// One aggregate.shard event per shard; the faulted
						// shard's names its pools, class and degradation.
						if len(got.Events) != shards {
							t.Fatalf("%s runner: %d aggregate.shard events, want %d: %+v", runner, len(got.Events), shards, got.Events)
						}
						wantEv := shardEvent{Shard: faultedShard, Pool: faultedPools, Class: behaviour, Degraded: partial && behaviour != "ok"}
						if behaviour == "cancel" {
							wantEv.Class = "cancelled"
						}
						if ev := got.Events[faultedShard]; ev != wantEv {
							t.Errorf("%s runner: faulted shard event = %+v, want %+v", runner, ev, wantEv)
						}
					}
					// Siblings race a cancellation — the caller's, or in
					// fail-whole mode the failed shard's; everywhere else
					// every event must agree across runners.
					if behaviour == "ok" || (partial && behaviour != "cancel") {
						if !reflect.DeepEqual(local.Events, fake.Events) {
							t.Errorf("events differ across runners:\n local: %+v\n fake:  %+v", local.Events, fake.Events)
						}
					}
				})
			}
		}
	}
}
