// Package faults is a deterministic fault-injection harness for the
// capacity-planning pipeline: it wraps any record source (headroom.Source)
// with rules that inject transient errors, permanent errors, latency stalls
// and panics at configurable record offsets or probabilities — fully
// reproducible from a seed.
//
// The package exists so failure paths can be driven as deliberately as
// happy paths: the chaos tests replay the exact same faults from the same
// seed, and resilience layers (the coordinator's shard reroute, the dist
// workers' circuit breakers, partial results, a transient failure's 503) can
// be exercised against known bad states instead of waiting for production to
// produce them.
//
// Determinism contract: a fresh Injector with the same seed and rules,
// driven through the same call sequence (same shard count, same stream
// order), injects the same faults at the same points. Offset-based
// transient, stall and panic rules are one-shot per (rule, offset) within
// an injector's lifetime, so a rerun of the same stream through the same
// injector (a client's resubmission of a job that answered 503) succeeds.
// Permanent rules fire on every run.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"headroom"
	"headroom/internal/retry"
)

// Kind is the class of an injected fault.
type Kind string

const (
	// Transient injects an error marked retryable (headroom.Transient).
	Transient Kind = "transient"
	// Permanent injects an unmarked error: nothing may retry it.
	Permanent Kind = "permanent"
	// Stall injects a latency stall (Rule.Stall) before the record
	// proceeds; the stall honours context cancellation.
	Stall Kind = "stall"
	// Panic injects a panic, exercising panic-isolation paths.
	Panic Kind = "panic"
)

// Rule schedules injections of one fault kind. At-offset and probability
// triggers may be combined in one injector by passing multiple rules.
type Rule struct {
	// Kind is the fault class; required.
	Kind Kind
	// Pools restricts the rule to records of the named pools (and offset
	// counting to those records). Empty matches every record.
	Pools []string
	// At lists the matching-record ordinals (0-based, counted per stream
	// run) before which the fault fires. For Transient, Stall and Panic the
	// (rule, offset) pair fires at most once per injector lifetime, so
	// reruns of the same stream proceed past it; Permanent offsets fire on
	// every run.
	At []int
	// Prob injects before each matching record with this probability,
	// drawn from the injector's seeded generator.
	Prob float64
	// StallFor is the injected delay for Kind Stall; default 50 ms.
	StallFor time.Duration
	// Msg overrides the injected error/panic text.
	Msg string
}

func (r Rule) matches(pool string) bool {
	if len(r.Pools) == 0 {
		return true
	}
	for _, p := range r.Pools {
		if p == pool {
			return true
		}
	}
	return false
}

func (r Rule) hasOffset(ord int) bool {
	for _, a := range r.At {
		if a == ord {
			return true
		}
	}
	return false
}

func (r Rule) stall() time.Duration {
	if r.StallFor > 0 {
		return r.StallFor
	}
	return 50 * time.Millisecond
}

func (r Rule) message(where string) string {
	if r.Msg != "" {
		return r.Msg
	}
	return fmt.Sprintf("faults: injected %s fault %s", r.Kind, where)
}

// Injector deterministically injects the configured rules into sources. One
// injector may wrap many streams; its injection counter aggregates across
// all of them (exported to metrics by capserved).
type Injector struct {
	seed     int64
	rules    []Rule
	injected atomic.Int64

	mu    sync.Mutex
	fired map[string]bool // one-shot (scope, rule, offset) triggers
}

// New builds an injector from a seed and rules. Rules are validated
// minimally: an unknown kind panics at injection time, not construction.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: append([]Rule(nil), rules...), fired: make(map[string]bool)}
}

// Injected returns the total number of faults injected so far.
func (in *Injector) Injected() int64 { return in.injected.Load() }

// onceFired reports whether the one-shot trigger key already fired, marking
// it fired otherwise.
func (in *Injector) onceFired(key string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired[key] {
		return true
	}
	in.fired[key] = true
	return false
}

// fires decides whether rule ri fires before the ord-th matching record of a
// stream: at a listed offset — once per (scope, rule, offset)
// unless the rule is Permanent — or else by a probability draw.
func (in *Injector) fires(scope string, ri, ord int, draw func() float64) bool {
	rule := &in.rules[ri]
	if rule.hasOffset(ord) && (rule.Kind == Permanent || !in.onceFired(fmt.Sprintf("%s/%d/%d", scope, ri, ord))) {
		return true
	}
	return rule.Prob > 0 && draw() < rule.Prob
}

// Source wraps src with fault injection. The wrapper preserves sharding
// (each shard gets a decorrelated but reproducible random stream) and pool
// attribution (headroom.PoolNamer), so sharded aggregation splits and
// reports it like the source it wraps.
func (in *Injector) Source(src headroom.Source) headroom.Source {
	return &faultSource{in: in, src: src, scope: "s", seed: in.seed}
}

// faultSource is one wrapped source (or shard of one).
type faultSource struct {
	in    *Injector
	src   headroom.Source
	scope string // distinguishes one-shot triggers across shards
	seed  int64

	mu  sync.Mutex
	rng *rand.Rand
}

func (f *faultSource) Stream(ctx context.Context, emit func([]headroom.Record) error) error {
	// Per-rule matching-record ordinals restart every run; the rng and
	// one-shot set persist across runs so probability draws advance and
	// one-shot offsets stay consumed.
	counts := make([]int, len(f.in.rules))
	draw := f.draw
	return f.src.Stream(ctx, func(run []headroom.Record) error {
		// Rules are evaluated record by record, so ordinals and draws do not
		// depend on how the source cuts its runs. A fault fires before its
		// record: the records ahead of it in the run are delivered first.
		sent := 0
		for i := range run {
			r := &run[i]
			for ri := range f.in.rules {
				rule := &f.in.rules[ri]
				if !rule.matches(r.Pool) {
					continue
				}
				ord := counts[ri]
				counts[ri]++
				if !f.in.fires(f.scope, ri, ord, draw) {
					continue
				}
				if sent < i {
					if err := emit(run[sent:i]); err != nil {
						return err
					}
					sent = i
				}
				where := fmt.Sprintf("before record %d of pool %s@%s", ord, r.Pool, r.DC)
				if err := f.in.inject(ctx, rule, where); err != nil {
					return err
				}
			}
		}
		return emit(run[sent:])
	})
}

// draw samples the wrapped source's seeded generator.
func (f *faultSource) draw() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.seed))
	}
	return f.rng.Float64()
}

// inject performs one fault. Stalls return nil after the delay (the stream
// proceeds); error kinds return the injected error; Panic panics.
func (in *Injector) inject(ctx context.Context, rule *Rule, where string) error {
	in.injected.Add(1)
	msg := rule.message(where)
	switch rule.Kind {
	case Transient:
		return headroom.Transient(fmt.Errorf("%s", msg))
	case Permanent:
		return fmt.Errorf("%s", msg)
	case Stall:
		select {
		case <-time.After(rule.stall()):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case Panic:
		panic(msg)
	}
	panic(fmt.Sprintf("faults: unknown fault kind %q", rule.Kind))
}

// Shards forwards sharding, wrapping each shard with a decorrelated but
// reproducible random stream and a distinct one-shot scope.
func (f *faultSource) Shards(n int) []headroom.Source {
	sh, ok := f.src.(headroom.ShardedSource)
	if !ok || n <= 1 {
		return []headroom.Source{f}
	}
	subs := sh.Shards(n)
	if len(subs) <= 1 {
		return []headroom.Source{f}
	}
	out := make([]headroom.Source, len(subs))
	for i, sub := range subs {
		out[i] = &faultSource{
			in:    f.in,
			src:   sub,
			scope: fmt.Sprintf("%s/%d", f.scope, i),
			seed:  retry.DeriveSeed(f.seed, int64(i)),
		}
	}
	return out
}

// PoolNames forwards the underlying source's pool attribution.
func (f *faultSource) PoolNames() []string { return headroom.PoolNames(f.src) }

// String renders the injector's configuration for logs.
func (in *Injector) String() string {
	parts := make([]string, len(in.rules))
	for i, r := range in.rules {
		var b strings.Builder
		fmt.Fprintf(&b, "%s", r.Kind)
		if len(r.Pools) > 0 {
			sorted := append([]string(nil), r.Pools...)
			sort.Strings(sorted)
			fmt.Fprintf(&b, " pools=%s", strings.Join(sorted, ","))
		}
		if len(r.At) > 0 {
			fmt.Fprintf(&b, " at=%v", r.At)
		}
		if r.Prob > 0 {
			fmt.Fprintf(&b, " p=%g", r.Prob)
		}
		parts[i] = b.String()
	}
	return fmt.Sprintf("faults(seed=%d: %s)", in.seed, strings.Join(parts, "; "))
}

var (
	_ headroom.ShardedSource = (*faultSource)(nil)
	_ headroom.PoolNamer     = (*faultSource)(nil)
)
