package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"headroom/internal/trace"
)

// referenceAdd is the ingest oracle: every record resolved through the three
// maps, nothing predicted, nothing remembered between records.
func referenceAdd(pools map[PoolKey]*poolAcc, r trace.Record) {
	key := PoolKey{DC: r.DC, Pool: r.Pool}
	p := pools[key]
	if p == nil {
		p = &poolAcc{ticks: make(map[int]*tickAcc), servers: make(map[string]*serverAcc)}
		pools[key] = p
	}
	s := p.servers[r.Server]
	if s == nil {
		s = &serverAcc{generation: r.Generation}
		p.servers[r.Server] = s
	}
	s.windows++
	if !r.Online {
		return
	}
	s.online++
	s.cpu = append(s.cpu, r.CPUPct)
	t := p.ticks[r.Tick]
	if t == nil {
		t = &tickAcc{}
		p.ticks[r.Tick] = t
	}
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

func referenceAggregate(recs []trace.Record) *Aggregator {
	pools := make(map[PoolKey]*poolAcc)
	for _, r := range recs {
		referenceAdd(pools, r)
	}
	return &Aggregator{pools: pools}
}

func wireBytes(t *testing.T, a *Aggregator) []byte {
	t.Helper()
	enc, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return enc
}

// hostileStream is everything a fleet never emits: ticks that are sparse, do
// not start at zero, go backwards and reach 2³¹; a server set that differs
// from tick to tick; a server repeated inside one tick; a pool whose servers
// arrive in reverse order every other tick.
func hostileStream(seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.Record
	for _, tick := range []int{1 << 31, 7, 7, 3, 900000, 4, 3, 1 << 31, 12} {
		for _, pool := range []string{"X", "Y"} {
			present := rng.Perm(6)[:2+rng.Intn(4)]
			if pool == "Y" {
				present = []int{0, 1, 2, 3}
				if tick%2 == 1 {
					present = []int{3, 2, 1, 0}
				}
			}
			for _, srv := range append(present, present[0]) {
				r := trace.Record{
					Tick: tick, DC: "DC 9", Pool: pool,
					Server:     fmt.Sprintf("%s-%02d", pool, srv),
					Generation: "gen2",
					Online:     rng.Float64() > 0.3,
				}
				if r.Online {
					r.RPS, r.CPUPct, r.LatencyMs = 90*rng.Float64(), 70*rng.Float64(), 9*rng.Float64()
					r.NetBytes, r.DiskRead, r.Errors = 1e6*rng.Float64(), 1e4*rng.Float64(), float64(rng.Intn(2))
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// steps cuts a stream where the (pool, datacenter, tick) changes: the runs
// the simulator emits.
func steps(recs []trace.Record) [][]trace.Record {
	var out [][]trace.Record
	start := 0
	for i := 1; i <= len(recs); i++ {
		if i == len(recs) || recs[i].Pool != recs[start].Pool || recs[i].DC != recs[start].DC || recs[i].Tick != recs[start].Tick {
			out = append(out, recs[start:i])
			start = i
		}
	}
	return out
}

// interleave reorders a stream so that consecutive records come from
// different (pool, datacenter) keys wherever possible, keeping each key's
// own records in their original order.
func interleave(recs []trace.Record) []trace.Record {
	perKey := map[PoolKey][]trace.Record{}
	var keys []PoolKey
	for _, r := range recs {
		k := PoolKey{DC: r.DC, Pool: r.Pool}
		if perKey[k] == nil {
			keys = append(keys, k)
		}
		perKey[k] = append(perKey[k], r)
	}
	out := make([]trace.Record, 0, len(recs))
	for len(out) < len(recs) {
		for _, k := range keys {
			if q := perKey[k]; len(q) > 0 {
				out = append(out, q[0])
				perKey[k] = q[1:]
			}
		}
	}
	return out
}

// TestIngestOrderIndependentOfRunShape: however a stream is cut into runs,
// and however its pool-datacenters are interleaved, the aggregator holds the
// bytes the map-only oracle holds.
func TestIngestOrderIndependentOfRunShape(t *testing.T) {
	streams := map[string][]trace.Record{
		"fleet":   randomStream(5, 12),
		"hostile": hostileStream(5),
	}
	for name, recs := range streams {
		want := wireBytes(t, referenceAggregate(recs))
		feeds := map[string]func(a *Aggregator){
			"one Add at a time": func(a *Aggregator) {
				for _, r := range recs {
					a.Add(r)
				}
			},
			"one run": func(a *Aggregator) { a.AddAll(recs) },
			"whole steps": func(a *Aggregator) {
				for _, step := range steps(recs) {
					// The source reuses its buffer: hand over a scratch
					// copy and scribble on it afterwards.
					buf := append([]trace.Record(nil), step...)
					a.AddAll(buf)
					clear(buf)
				}
			},
			"random cuts": func(a *Aggregator) {
				rng := rand.New(rand.NewSource(11))
				for rest := recs; len(rest) > 0; {
					n := 1 + rng.Intn(min(len(rest), 9))
					a.AddAll(rest[:n])
					rest = rest[n:]
				}
			},
			"interleaved": func(a *Aggregator) { a.AddAll(interleave(recs)) },
			"interleaved, one Add at a time": func(a *Aggregator) {
				for _, r := range interleave(recs) {
					a.Add(r)
				}
			},
		}
		for feed, run := range feeds {
			a := NewAggregator()
			run(a)
			if got := wireBytes(t, a); !bytes.Equal(got, want) {
				t.Errorf("%s stream fed as %s: %d bytes differ from the oracle's %d", name, feed, len(got), len(want))
			}
		}
	}
}

// TestIngestAfterMergeAndDecode: an aggregator that adopted another's pools
// (Merge) or was replaced wholesale (UnmarshalBinary) keeps ingesting
// correctly — whatever its cursors remembered must not outlive the state
// they pointed into.
func TestIngestAfterMergeAndDecode(t *testing.T) {
	for name, recs := range map[string][]trace.Record{"fleet": randomStream(9, 10), "hostile": hostileStream(9)} {
		want := wireBytes(t, referenceAggregate(recs))
		half := len(recs) / 2
		head, tail := recs[:half], recs[half:]

		// Disjoint keys: a and b each ingest the head of their own keys, a
		// adopts b's pools, then ingests the tail of every key. Each key's
		// records still meet one accumulator in stream order, so the bytes
		// must be the single-pass bytes.
		a, b := NewAggregator(), NewAggregator()
		for _, r := range head {
			if r.Pool == recs[0].Pool {
				a.AddAll([]trace.Record{r})
			} else {
				b.AddAll([]trace.Record{r})
			}
		}
		a.Merge(b)
		a.AddAll(tail)
		if got := wireBytes(t, a); !bytes.Equal(got, want) {
			t.Errorf("%s: AddAll after Merge of disjoint pools differs from single pass", name)
		}

		// Overlapping keys: b's servers and ticks are folded into pools a
		// already has cursors for. The oracle does the same with map-only
		// ingestion on both sides.
		third := len(recs) / 3
		a, b = aggregate(recs[:third]), aggregate(recs[third:2*third])
		a.Merge(b)
		a.AddAll(recs[2*third:])
		ra, rb := referenceAggregate(recs[:third]), referenceAggregate(recs[third:2*third])
		ra.Merge(rb)
		for _, r := range recs[2*third:] {
			referenceAdd(ra.pools, r)
		}
		if !bytes.Equal(wireBytes(t, a), wireBytes(t, ra)) {
			t.Errorf("%s: AddAll after Merge of overlapping pools differs from the oracle", name)
		}

		// Decode replaces the state under a live aggregator.
		c := aggregate(head)
		other := aggregate(tail) // cursors now point into state about to be dropped
		if err := other.UnmarshalBinary(wireBytes(t, c)); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		other.AddAll(tail)
		if got := wireBytes(t, other); !bytes.Equal(got, want) {
			t.Errorf("%s: AddAll after UnmarshalBinary differs from single pass", name)
		}
	}
}

// TestIngestCursorBounded: what the cursor remembers is bounded by what the
// pool holds. A stream repeating one server, or a tick of 2³¹, must not make
// the aggregator grow with the number of records or the size of the tick.
func TestIngestCursorBounded(t *testing.T) {
	a := NewAggregator()
	run := make([]trace.Record, 5000)
	for i := range run {
		run[i] = trace.Record{Tick: 1 << 31, DC: "d", Pool: "p", Server: "only", Generation: "g"}
	}
	a.AddAll(run)
	a.AddAll(randomStream(3, 4))
	for key, c := range a.cursors {
		if len(c.order) > len(c.acc.servers) {
			t.Errorf("%v: cursor remembers %d servers, the pool has %d", key, len(c.order), len(c.acc.servers))
		}
	}
	p := a.pools[PoolKey{DC: "d", Pool: "p"}]
	if got := p.servers["only"].windows; got != len(run) {
		t.Errorf("windows = %d, want %d", got, len(run))
	}
	if len(p.ticks) != 0 {
		t.Errorf("offline records created %d tick accumulators", len(p.ticks))
	}
}
