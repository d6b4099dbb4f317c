// Package metrics aggregates raw trace records into the pool-level and
// server-level statistics the capacity-planning methodology consumes:
// per-tick pool aggregates (workload, CPU, latency, secondary counters),
// per-server utilisation summaries (the 5th..95th percentile feature set),
// and availability accounting.
//
// This corresponds to the paper's measurement substrate: performance
// counters averaged over 120-second windows, partitioned per workload and
// per pool (§II-A, §III).
//
// One PoolWriter writes each (pool, datacenter)'s windows, fed two ways.
// AddAll takes any stream of records, recovers pool, server and tick from
// each one's names, and learns the order its servers come in. A stream that
// lists the same servers in the same order every window — the simulator's —
// names them once and is then written by server index, so nothing is named
// per record. The state is the same: per window, the online servers' sums;
// per server, its counts; and per (pool, datacenter), one block of every
// server's CPU samples, laid out sample-major (server i's k-th sample at
// k*width + i, i its first-seen index). A window's writes then fall side by
// side in a row or two of one block rather than across one slice per
// server, and a server's samples, which its summary and the wire codec read,
// are one column in arrival order.
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

// serverAcc accumulates one server's observations. Its CPU samples are not
// here but in its pool's sample block, apart from any the block declined.
type serverAcc struct {
	name       string
	generation string
	col        int // first-seen index in the pool; a block column when below the pool's width
	online     int // windows online, one CPU sample each
	windows    int
	// spill holds the samples past the server's part of the block, in
	// arrival order: all of them for a server without a column, the tail of
	// a server whose next row the block declined to add (see poolAcc.addRow).
	spill []float64
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

// add sums one online server's record into the window.
func (t *tickAcc) add(r *trace.Record) {
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

// poolAcc accumulates one pool's observations.
type poolAcc struct {
	ticks   map[int]*tickAcc
	servers map[string]*serverAcc
	order   []*serverAcc // servers by first sight: order[i].col == i

	// samples is the pool's sample block: rows rows of width entries,
	// sample-major, so the k-th sample of the server in column i sits at
	// k*width+i. A fleet emits a window's servers in one order, so a
	// window's samples land side by side in one or two rows instead of in as
	// many separate slices as the pool has servers, and each server's
	// samples stay in arrival order down its column. A server owns the
	// column of its first-seen index when it was met before the block's
	// second row; used counts the entries that hold a sample.
	samples []float64
	width   int
	rows    int
	used    int
}

func newPoolAcc(windows int) *poolAcc {
	return &poolAcc{ticks: make(map[int]*tickAcc, windows), servers: make(map[string]*serverAcc)}
}

// addServer registers a server the pool has not met, at the next first-seen
// index. The block is only widened while it has at most one row, where a
// new column is one more entry: a server met later keeps its samples in its
// spill, so no stream makes the block copy itself.
func (p *poolAcc) addServer(name, generation string) *serverAcc {
	s := &serverAcc{name: name, generation: generation, col: len(p.order)}
	p.servers[name] = s
	p.order = append(p.order, s)
	if p.rows <= 1 {
		p.width++
		if p.rows == 1 {
			p.samples = append(p.samples, 0)
		}
	}
	return s
}

// add appends the server's next CPU sample, sizing a new block to windows
// rows (the aggregator's horizon hint) and doubling a full one.
func (p *poolAcc) add(s *serverAcc, v float64, windows int) {
	k := s.online
	s.online++
	if k < p.rows && s.spill == nil && s.col < p.width {
		p.samples[k*p.width+s.col] = v
		p.used++
		return
	}
	p.addRow(s, k, v, windows)
}

// addRow places a sample past the block's last row. The block takes a row
// for it only while its entries would stay within twice its samples plus
// two rows, so a stream whose servers' sample counts drift far apart (one
// server online long after the rest went away) cannot make the block
// outgrow its samples; past that the server spills, and stays spilled.
func (p *poolAcc) addRow(s *serverAcc, k int, v float64, windows int) {
	if s.spill != nil || s.col >= p.width || (p.rows+1)*p.width > 2*(p.used+p.width) {
		s.spill = append(s.spill, v)
		return
	}
	// A server without spill has its k samples in rows [0, k), so k == rows.
	n := (p.rows + 1) * p.width
	if n > cap(p.samples) {
		// make, not append: it leaves fresh memory untouched where
		// growing a slice would clear all of its capacity up front.
		grown := make([]float64, len(p.samples), max(n, windows*p.width, 2*len(p.samples)))
		copy(grown, p.samples)
		p.samples = grown
	}
	p.samples = p.samples[:n]
	p.rows++
	p.samples[k*p.width+s.col] = v
	p.used++
}

// summaryBatch is how many servers' columns ServerSummaries copies out of
// a block at a time. Read one at a time, a column takes an entry per row, a
// row apart: a cache miss per sample. Copied a batch at a time, each row's
// entries for the batch are read side by side.
const summaryBatch = 16

// transpose copies columns [lo, lo+n) of the block (those below its width)
// into dst, column j's rows at dst[j*rows:]; entries past a column's samples
// carry no value.
func (p *poolAcc) transpose(dst []float64, lo, n int) {
	n = max(min(n, p.width-lo), 0)
	for k := 0; k < p.rows; k++ {
		row := p.samples[k*p.width+lo : k*p.width+lo+n]
		for j, v := range row {
			dst[j*p.rows+k] = v
		}
	}
}

// appendSamples appends the server's CPU samples, in arrival order, to dst:
// its column of the block, then its spill.
func (p *poolAcc) appendSamples(dst []float64, s *serverAcc) []float64 {
	for k, i := 0, s.col; k < s.online-len(s.spill); k, i = k+1, i+p.width {
		dst = append(dst, p.samples[i])
	}
	return append(dst, s.spill...)
}

// addColumns appends cols[i] to dst[i]'s samples for every i, sample-major
// (every server's first sample, then every second one, ...), the order a
// fleet stream fills the block in.
func (p *poolAcc) addColumns(dst []*serverAcc, cols [][]float64, windows int) {
	live := make([]int, 0, len(cols))
	for i, c := range cols {
		if len(c) > 0 {
			live = append(live, i)
		}
	}
	for k := 0; len(live) > 0; k++ {
		next := live[:0]
		for _, i := range live {
			p.add(dst[i], cols[i][k], windows)
			if k+1 < len(cols[i]) {
				next = append(next, i)
			}
		}
		live = next
	}
}

// tick returns the accumulator of the pool's window at tick, creating it
// (from the spares while they last) on the window's first sight.
func (p *poolAcc) tick(tick int, spare *[]tickAcc) *tickAcc {
	t := p.ticks[tick]
	if t == nil {
		if len(*spare) > 0 {
			t, *spare = &(*spare)[0], (*spare)[1:]
		} else {
			t = &tickAcc{}
		}
		p.ticks[tick] = t
	}
	return t
}

// Aggregator consumes trace records and produces pool and server
// aggregates. The zero value is not usable; construct with NewAggregator.
//
// Each (pool, datacenter) keeps its servers' CPU samples in one block,
// sample-major (see poolAcc.samples): what a window writes is adjacent, and
// what ServerSummaries and MarshalBinary read of a server is one column.
type Aggregator struct {
	pools map[PoolKey]*poolAcc

	// windows is the expected number of windows per server (0: unknown), a
	// capacity hint for a new pool's sample block and windows. No value read
	// out of the aggregator depends on it.
	windows int

	// Ingest state, kept apart from pools so that aggregators holding equal
	// data stay equal however they were fed: one writer per pool that AddAll
	// has touched, and the writer of the last record.
	cursors map[PoolKey]*PoolWriter
	last    *PoolWriter
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return NewAggregatorFor(0)
}

// NewAggregatorFor returns an empty aggregator for a stream expected to hold
// windows windows per server: each new pool's windows and its sample block
// (windows rows of one column per server) are allocated once, at that size,
// instead of grown. The size is a hint only: a longer stream grows past it,
// a shorter one leaves it unused, and everything read out of the aggregator
// is the same as NewAggregator's.
func NewAggregatorFor(windows int) *Aggregator {
	return &Aggregator{pools: make(map[PoolKey]*poolAcc), windows: max(windows, 0)}
}

// Add ingests one record: a run of one (see AddAll).
func (a *Aggregator) Add(r trace.Record) {
	a.AddAll([]trace.Record{r})
}

// AddAll ingests a run of records, reading them in place: the record path,
// for any stream. Offline windows count toward availability but not toward
// resource aggregates (an offline server serves no traffic). Records may
// arrive in any order; a stream in fleet order (pool, datacenter, tick, then
// servers in a fixed order) is ingested without hashing.
func (a *Aggregator) AddAll(rs []trace.Record) {
	w := a.last
	for i := range rs {
		r := &rs[i]
		if w == nil || r.Pool != w.key.Pool || r.DC != w.key.DC {
			key := PoolKey{DC: r.DC, Pool: r.Pool}
			if w = a.cursors[key]; w == nil {
				if a.cursors == nil {
					a.cursors = make(map[PoolKey]*PoolWriter)
				}
				w = a.writer(key)
				a.cursors[key] = w
			}
		}
		if w.t == nil || r.Tick != w.tick {
			w.open(r.Tick)
		}
		s := w.server(r)
		s.windows++
		if r.Online {
			w.p.add(s, r.CPUPct, w.windows)
			w.t.add(r)
		}
	}
	a.last = w
}

// PoolWriter writes one (pool, datacenter)'s windows: the one writer of an
// aggregator's state. Its servers are by index. A by-index stream, one that
// emits the same servers in the same order every window (the simulator's),
// names each server once, when the writer is made (Aggregator.PoolWriter),
// and a window is then its tick and its online servers' values, by index,
// with no name to read or compare. For AddAll the servers are instead the
// order it learned: a fleet emits a pool's servers in the same order every
// tick, so a record's server is usually the one after the last (from the
// first again when the tick changes), and a wrong guess costs a lookup in
// the pool's index, never a wrong answer. Fed the windows of a record stream
// in its order, a by-index writer leaves the aggregator holding what AddAll
// over those records leaves, bit for bit.
type PoolWriter struct {
	key     PoolKey
	p       *poolAcc
	servers []*serverAcc // by index; for AddAll, at most one per server of p
	next    int          // AddAll: the index in servers of the predicted next server
	tick    int
	t       *tickAcc  // the open window, p.ticks[tick]; nil until the first opens
	spare   []tickAcc // preallocated accumulators for the pool's new windows
	windows int       // the aggregator's horizon hint
}

// writer returns a writer of key's windows with no servers, creating the
// pool on first sight.
func (a *Aggregator) writer(key PoolKey) *PoolWriter {
	w := &PoolWriter{key: key, p: a.pools[key], windows: a.windows}
	if w.p == nil {
		w.p = newPoolAcc(a.windows)
		w.spare = make([]tickAcc, a.windows)
		a.pools[key] = w.p
	}
	return w
}

// PoolWriter returns a writer for key's stream of n servers, server i being
// the one name(i) names (and, on first sight, gives its generation).
func (a *Aggregator) PoolWriter(key PoolKey, n int, name func(i int) (server, generation string)) *PoolWriter {
	w := a.writer(key)
	w.servers = make([]*serverAcc, n)
	for i := range w.servers {
		server, generation := name(i)
		s := w.p.servers[server]
		if s == nil {
			s = w.p.addServer(server, generation)
		}
		w.servers[i] = s
	}
	return w
}

// open makes the window at tick the open one, creating it on first sight,
// and predicts the first server next.
func (w *PoolWriter) open(tick int) {
	w.tick, w.t, w.next = tick, w.p.tick(tick, &w.spare), 0
}

// server resolves AddAll's record r to its server: the predicted one when
// the name matches, else the pool's index entry, created on first sight. A
// server met at the end of the learned order extends it, which is how the
// order is learned during a pool's first tick (and relearned after Merge or
// UnmarshalBinary brought servers in); the order never outgrows the pool's
// servers, so a stream that repeats or shuffles servers cannot make it grow.
func (w *PoolWriter) server(r *trace.Record) *serverAcc {
	if n := w.next; n < len(w.servers) && w.servers[n].name == r.Server {
		w.next = n + 1
		return w.servers[n]
	}
	s := w.p.servers[r.Server]
	if s == nil {
		s = w.p.addServer(r.Server, r.Generation)
	}
	if w.next == len(w.servers) && len(w.servers) < len(w.p.servers) {
		w.servers = append(w.servers, s)
		w.next++
	}
	return s
}

// Window opens the window at tick, where every server of the writer has a
// record, online or not.
func (w *PoolWriter) Window(tick int) {
	w.open(tick)
	for _, s := range w.servers {
		s.windows++
	}
}

// Online adds server i's values in the open window, read from r: its CPU
// sample and its share of the window's sums. Servers must come in index
// order, as a record stream would list them; r's tick, names and Online are
// not read.
func (w *PoolWriter) Online(i int, r *trace.Record) {
	w.p.add(w.servers[i], r.CPUPct, w.windows)
	w.t.add(r)
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
		// b's servers in b's first-seen order, each one's samples after
		// those a holds.
		dst := make([]*serverAcc, len(pb.order))
		cols := make([][]float64, len(pb.order))
		for i, sb := range pb.order {
			sa := pa.servers[sb.name]
			if sa == nil {
				sa = pa.addServer(sb.name, sb.generation)
			}
			sa.windows += sb.windows
			dst[i], cols[i] = sa, pb.appendSamples(nil, sb)
		}
		pa.addColumns(dst, cols, a.windows)
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
	cols := make([]float64, summaryBatch*p.rows)
	for lo := 0; lo < len(p.order); lo += summaryBatch {
		batch := p.order[lo:min(lo+summaryBatch, len(p.order))]
		p.transpose(cols, lo, len(batch))
		for j, s := range batch {
			cpu := cols[j*p.rows : j*p.rows+s.online-len(s.spill)]
			if s.spill != nil {
				cpu = append(cpu[:len(cpu):len(cpu)], s.spill...)
			}
			out = append(out, summarizeServer(&sel, s, cpu))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out, nil
}

// summaryRanks are the percentile ranks of stats.Summary's P5..P95, the x
// axis of a server's percentile line.
var summaryRanks = []float64{5, 25, 50, 75, 95}

// summarizeServer is ServerSummaries' per-server work over the server's CPU
// samples; on a Selector that has seen a sample as long as cpu it allocates
// nothing.
func summarizeServer(sel *stats.Selector, s *serverAcc, cpu []float64) ServerSummary {
	sum := ServerSummary{
		Server:     s.name,
		Generation: s.generation,
		Windows:    s.windows,
	}
	if s.windows > 0 {
		sum.Availability = float64(s.online) / float64(s.windows)
	}
	if len(cpu) > 0 {
		sum.CPU = sel.Summarize(cpu)
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
