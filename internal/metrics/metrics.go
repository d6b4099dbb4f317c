// Package metrics aggregates raw trace records into the pool-level and
// server-level statistics the capacity-planning methodology consumes:
// per-tick pool aggregates (workload, CPU, latency, secondary counters),
// per-server utilisation summaries (the 5th..95th percentile feature set),
// and availability accounting.
//
// This corresponds to the paper's measurement substrate: performance
// counters averaged over 120-second windows, partitioned per workload and
// per pool (§II-A, §III).
package metrics

import (
	"errors"
	"fmt"
	"sort"

	"headroom/internal/stats"
	"headroom/internal/trace"
)

// PoolKey identifies a server pool in one datacenter.
type PoolKey struct {
	DC   string
	Pool string
}

// String renders the key as "pool@dc".
func (k PoolKey) String() string { return k.Pool + "@" + k.DC }

// TickStat is a pool-level aggregate over one 120-second window: the mean
// across the pool's online servers, as plotted in the paper's Figure 2.
type TickStat struct {
	Tick         int
	Servers      int // online servers contributing to the window
	TotalRPS     float64
	RPSPerServer float64
	CPUMean      float64
	LatencyMean  float64 // mean of per-server p95 latency
	NetBytes     float64
	NetPkts      float64
	MemPages     float64
	DiskQueue    float64
	DiskRead     float64
	Errors       float64
}

// ServerSummary is the per-server daily feature set used for capacity-
// planning group identification (§II-A2): CPU percentile features plus the
// slope/intercept/R² of a regression across the percentile curve, and the
// availability fraction.
type ServerSummary struct {
	Server       string
	Generation   string
	CPU          stats.Summary
	Availability float64 // fraction of windows online
	Windows      int
	// Slope, Intercept and R2 are the linear-regression coefficients over
	// the (percentile rank, CPU value) pairs, exactly the feature the
	// paper adds to its decision-tree feature vector.
	Slope     float64
	Intercept float64
	R2        float64
}

// FeatureVector renders the summary as the decision-tree input used by the
// grouping step.
func (s ServerSummary) FeatureVector() []float64 {
	return []float64{s.CPU.P5, s.CPU.P25, s.CPU.P50, s.CPU.P75, s.CPU.P95, s.Slope, s.Intercept, s.R2}
}

// serverAcc accumulates one server's observations.
type serverAcc struct {
	generation string
	cpu        []float64
	online     int
	windows    int
}

// tickAcc accumulates one pool-tick's online-server sums. Every window a pool
// has a record in has one, with servers 0 when none of them was online.
type tickAcc struct {
	servers   int
	rps       float64
	cpu       float64
	latency   float64
	netBytes  float64
	netPkts   float64
	memPages  float64
	diskQueue float64
	diskRead  float64
	errs      float64
}

// poolAcc accumulates one pool's observations.
type poolAcc struct {
	ticks   map[int]*tickAcc
	servers map[string]*serverAcc
}

// Aggregator consumes trace records and produces pool and server
// aggregates. The zero value is not usable; construct with NewAggregator.
type Aggregator struct {
	pools map[PoolKey]*poolAcc

	// windows is the expected number of windows per server (0: unknown), a
	// capacity hint for a new server's samples and a new pool's windows.
	// No value read out of the aggregator depends on it.
	windows int

	// Ingest state, kept apart from pools so that aggregators holding equal
	// data stay equal however they were fed: one cursor per pool that AddAll
	// has touched, and the cursor of the last record.
	cursors map[PoolKey]*poolCursor
	last    *poolCursor
}

// poolCursor predicts where the next record of one pool lands. A fleet emits
// a pool's servers in the same order every tick, so the server is usually the
// one after the last (wrapping when the tick changes) and the tick is usually
// the last one. The pool's maps remain the index: a wrong guess costs a
// lookup, never a wrong answer.
type poolCursor struct {
	key     PoolKey
	acc     *poolAcc
	order   []orderedServer // servers in arrival order, at most one per known server
	next    int             // index in order of the predicted next server
	tick    int
	tickAcc *tickAcc  // acc.ticks[tick], nil until the tick's first record
	spare   []tickAcc // preallocated accumulators for the pool's new windows
}

type orderedServer struct {
	name string
	acc  *serverAcc
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return NewAggregatorFor(0)
}

// NewAggregatorFor returns an empty aggregator for a stream expected to hold
// windows windows per server: each new pool's windows and each server's CPU
// samples are allocated once, at that size, instead of grown. The size is a
// hint only: a longer stream grows past it, a shorter one leaves it unused,
// and everything read out of the aggregator is the same as NewAggregator's.
func NewAggregatorFor(windows int) *Aggregator {
	return &Aggregator{pools: make(map[PoolKey]*poolAcc), windows: max(windows, 0)}
}

// Add ingests one record: a run of one (see AddAll).
func (a *Aggregator) Add(r trace.Record) {
	a.AddAll([]trace.Record{r})
}

// AddAll ingests a run of records, reading them in place. Offline windows
// count toward availability but not toward resource aggregates (an offline
// server serves no traffic). Records may arrive in any order; a stream in
// fleet order (pool, datacenter, tick, then servers in a fixed order) is
// ingested without hashing.
func (a *Aggregator) AddAll(rs []trace.Record) {
	c := a.last
	for i := range rs {
		r := &rs[i]
		if c == nil || r.Pool != c.key.Pool || r.DC != c.key.DC {
			c = a.cursor(PoolKey{DC: r.DC, Pool: r.Pool})
		}
		if r.Tick != c.tick {
			c.tick, c.tickAcc, c.next = r.Tick, nil, 0
		}
		var s *serverAcc
		if n := c.next; n < len(c.order) && c.order[n].name == r.Server {
			s, c.next = c.order[n].acc, n+1
		} else {
			s = c.lookupServer(r)
		}
		s.windows++
		t := c.tickAcc
		if t == nil {
			t = c.enterTick(r.Tick)
		}
		if !r.Online {
			continue
		}
		s.online++
		if s.cpu == nil {
			s.cpu = make([]float64, 0, a.windows)
		}
		s.cpu = append(s.cpu, r.CPUPct)

		t.servers++
		t.rps += r.RPS
		t.cpu += r.CPUPct
		t.latency += r.LatencyMs
		t.netBytes += r.NetBytes
		t.netPkts += r.NetPkts
		t.memPages += r.MemPages
		t.diskQueue += r.DiskQueue
		t.diskRead += r.DiskRead
		t.errs += r.Errors
	}
	a.last = c
}

// cursor returns the ingest cursor of a pool, creating the cursor and the
// pool on first sight.
func (a *Aggregator) cursor(key PoolKey) *poolCursor {
	if c := a.cursors[key]; c != nil {
		return c
	}
	if a.cursors == nil {
		a.cursors = make(map[PoolKey]*poolCursor)
	}
	c := &poolCursor{key: key, acc: a.pools[key]}
	if c.acc == nil {
		c.acc = &poolAcc{ticks: make(map[int]*tickAcc, a.windows), servers: make(map[string]*serverAcc)}
		c.spare = make([]tickAcc, a.windows)
		a.pools[key] = c.acc
	}
	a.cursors[key] = c
	return c
}

// enterTick resolves the accumulator of the cursor's tick at its first record,
// creating it (from the spares while they last) on the window's first sight.
func (c *poolCursor) enterTick(tick int) *tickAcc {
	t := c.acc.ticks[tick]
	if t == nil {
		if len(c.spare) > 0 {
			t, c.spare = &c.spare[0], c.spare[1:]
		} else {
			t = &tickAcc{}
		}
		c.acc.ticks[tick] = t
	}
	c.tickAcc = t
	return t
}

// lookupServer resolves a record the cursor mispredicted through the pool's
// server index, creating the server on first sight. A server met at the end
// of the learned order extends it, which is how the order is learned during
// a pool's first tick (and relearned after Merge or UnmarshalBinary brought
// servers in); the order never outgrows the server index, so a stream that
// repeats or shuffles servers cannot make it grow.
func (c *poolCursor) lookupServer(r *trace.Record) *serverAcc {
	s := c.acc.servers[r.Server]
	if s == nil {
		s = &serverAcc{generation: r.Generation}
		c.acc.servers[r.Server] = s
	}
	if c.next == len(c.order) && len(c.order) < len(c.acc.servers) {
		c.order = append(c.order, orderedServer{name: r.Server, acc: s})
		c.next++
	}
	return s
}

// Merge folds b's accumulated state into a, so record streams can be
// aggregated in parallel shards and combined afterwards. b must not be used
// after the call: a adopts b's internal accumulators where possible.
//
// When the shards partition the stream by (pool, datacenter) — each key's
// records all land in one shard, in stream order — the merged aggregator is
// identical to single-pass aggregation, bit for bit. Shards that split a
// key across aggregators still merge correctly (sums of sums), but
// floating-point addition order then differs from the single-pass result.
func (a *Aggregator) Merge(b *Aggregator) {
	if b == nil {
		return
	}
	for key, pb := range b.pools {
		pa, ok := a.pools[key]
		if !ok {
			a.pools[key] = pb
			continue
		}
		for tick, tb := range pb.ticks {
			ta, ok := pa.ticks[tick]
			if !ok {
				pa.ticks[tick] = tb
				continue
			}
			ta.servers += tb.servers
			ta.rps += tb.rps
			ta.cpu += tb.cpu
			ta.latency += tb.latency
			ta.netBytes += tb.netBytes
			ta.netPkts += tb.netPkts
			ta.memPages += tb.memPages
			ta.diskQueue += tb.diskQueue
			ta.diskRead += tb.diskRead
			ta.errs += tb.errs
		}
		for name, sb := range pb.servers {
			sa, ok := pa.servers[name]
			if !ok {
				pa.servers[name] = sb
				continue
			}
			sa.online += sb.online
			sa.windows += sb.windows
			sa.cpu = append(sa.cpu, sb.cpu...)
		}
	}
}

// Pools lists the observed pool keys in deterministic order.
func (a *Aggregator) Pools() []PoolKey {
	keys := make([]PoolKey, 0, len(a.pools))
	for k := range a.pools {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pool != keys[j].Pool {
			return keys[i].Pool < keys[j].Pool
		}
		return keys[i].DC < keys[j].DC
	})
	return keys
}

// PoolSeries returns the pool's per-tick aggregates sorted by tick.
func (a *Aggregator) PoolSeries(dc, pool string) ([]TickStat, error) {
	p, ok := a.pools[PoolKey{DC: dc, Pool: pool}]
	if !ok {
		return nil, fmt.Errorf("metrics: no data for pool %s@%s", pool, dc)
	}
	out := make([]TickStat, 0, len(p.ticks))
	for tick, t := range p.ticks {
		if t.servers == 0 {
			continue // a window with no server online carries no load
		}
		n := float64(t.servers)
		out = append(out, TickStat{
			Tick:         tick,
			Servers:      t.servers,
			TotalRPS:     t.rps,
			RPSPerServer: t.rps / n,
			CPUMean:      t.cpu / n,
			LatencyMean:  t.latency / n,
			NetBytes:     t.netBytes / n,
			NetPkts:      t.netPkts / n,
			MemPages:     t.memPages / n,
			DiskQueue:    t.diskQueue / n,
			DiskRead:     t.diskRead / n,
			Errors:       t.errs / n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out, nil
}

// ServerSummaries returns per-server summaries for a pool, sorted by server
// name. Servers that were never online have a zero CPU summary.
func (a *Aggregator) ServerSummaries(dc, pool string) ([]ServerSummary, error) {
	p, ok := a.pools[PoolKey{DC: dc, Pool: pool}]
	if !ok {
		return nil, fmt.Errorf("metrics: no data for pool %s@%s", pool, dc)
	}
	out := make([]ServerSummary, 0, len(p.servers))
	var sel stats.Selector
	for name, s := range p.servers {
		out = append(out, summarizeServer(&sel, name, s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out, nil
}

// summaryRanks are the percentile ranks of stats.Summary's P5..P95, the x
// axis of a server's percentile line.
var summaryRanks = []float64{5, 25, 50, 75, 95}

// summarizeServer is ServerSummaries' per-server work; on a Selector that
// has seen a sample as long as s.cpu it allocates nothing.
func summarizeServer(sel *stats.Selector, name string, s *serverAcc) ServerSummary {
	sum := ServerSummary{
		Server:     name,
		Generation: s.generation,
		Windows:    s.windows,
	}
	if s.windows > 0 {
		sum.Availability = float64(s.online) / float64(s.windows)
	}
	if len(s.cpu) > 0 {
		sum.CPU = sel.Summarize(s.cpu)
		vals := [...]float64{sum.CPU.P5, sum.CPU.P25, sum.CPU.P50, sum.CPU.P75, sum.CPU.P95}
		if fit, err := stats.LinearRegression(summaryRanks, vals[:]); err == nil {
			sum.Slope = fit.Slope
			sum.Intercept = fit.Intercept
			sum.R2 = fit.R2
		}
	}
	return sum
}

// PoolAvailability returns, for each day, the pool's mean online fraction
// over the day's windows, those with no server online included (the paper's
// Figure 15 series). ticksPerDay must be positive.
func (a *Aggregator) PoolAvailability(dc, pool string, ticksPerDay int) ([]float64, error) {
	if ticksPerDay <= 0 {
		return nil, errors.New("metrics: ticksPerDay must be positive")
	}
	p, ok := a.pools[PoolKey{DC: dc, Pool: pool}]
	if !ok {
		return nil, fmt.Errorf("metrics: no data for pool %s@%s", pool, dc)
	}
	total := len(p.servers)
	if total == 0 {
		return nil, fmt.Errorf("metrics: pool %s@%s has no servers", pool, dc)
	}
	maxTick := -1
	for tick := range p.ticks {
		if tick > maxTick {
			maxTick = tick
		}
	}
	days := maxTick/ticksPerDay + 1
	online := make([]float64, days)
	counts := make([]int, days)
	// In tick order: a float sum taken in map order differs in its last bits
	// from run to run.
	for tick := 0; tick <= maxTick; tick++ {
		t, ok := p.ticks[tick]
		if !ok {
			continue
		}
		d := tick / ticksPerDay
		online[d] += float64(t.servers) / float64(total)
		counts[d]++
	}
	for d := range online {
		if counts[d] > 0 {
			online[d] /= float64(counts[d])
		}
	}
	return online, nil
}
