package metrics

// Wire codec for Aggregator: the serialization that lets a shard be
// aggregated on one machine and merged on another (internal/dist). The
// format is binary and exact — float64 values travel as their IEEE-754 bit
// patterns — so a decoded aggregator is indistinguishable from the original
// and distributed merges stay bit-identical to single-process runs. The
// encoding is also deterministic (pools sorted by key, ticks by index,
// servers by name), so equal aggregators encode to equal bytes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// wireVersion guards against decoding a payload produced by an incompatible
// build; bump it whenever the accumulator layout changes.
const wireVersion = 1

// wireMagic distinguishes aggregator payloads from arbitrary bytes early.
var wireMagic = [4]byte{'H', 'A', 'G', 'G'}

// MarshalBinary serializes the aggregator's full accumulated state.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	keys := a.Pools() // sorted: deterministic encoding
	buf := make([]byte, 0, 1024)
	buf = append(buf, wireMagic[:]...)
	buf = appendUint32(buf, wireVersion)
	buf = appendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		p := a.pools[key]
		buf = appendString(buf, key.DC)
		buf = appendString(buf, key.Pool)

		ticks := make([]int, 0, len(p.ticks))
		for tick := range p.ticks {
			ticks = append(ticks, tick)
		}
		sort.Ints(ticks)
		buf = appendUint32(buf, uint32(len(ticks)))
		for _, tick := range ticks {
			t := p.ticks[tick]
			buf = appendUint32(buf, uint32(tick))
			buf = appendUint32(buf, uint32(t.servers))
			for _, v := range []float64{t.rps, t.cpu, t.latency, t.netBytes,
				t.netPkts, t.memPages, t.diskQueue, t.diskRead, t.errs} {
				buf = appendFloat(buf, v)
			}
		}

		names := make([]string, 0, len(p.servers))
		for name := range p.servers {
			names = append(names, name)
		}
		sort.Strings(names)
		buf = appendUint32(buf, uint32(len(names)))
		for _, name := range names {
			s := p.servers[name]
			buf = appendString(buf, name)
			buf = appendString(buf, s.generation)
			buf = appendUint32(buf, uint32(s.online))
			buf = appendUint32(buf, uint32(s.windows))
			// The cpu slice keeps its append order: percentile summaries are
			// computed over a sorted copy, but preserving order keeps the
			// decoded accumulator byte-for-byte equal to the original.
			buf = appendUint32(buf, uint32(len(s.cpu)))
			for _, v := range s.cpu {
				buf = appendFloat(buf, v)
			}
		}
	}
	return buf, nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded payload.
// It works on a zero Aggregator as well as one built with NewAggregator.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	d := &wireDecoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if magic != wireMagic {
		return fmt.Errorf("metrics: not an aggregator payload (bad magic)")
	}
	if v := d.uint32(); v != wireVersion {
		return fmt.Errorf("metrics: aggregator wire version %d, want %d", v, wireVersion)
	}
	// Count prefixes come off the wire before the data they describe, so each
	// is bounded by the bytes actually present (divided by the smallest
	// possible encoding of one element) before it sizes an allocation or a
	// loop — a forged prefix must fail fast, not reserve gigabytes or panic.
	npools := d.count(16) // ≥ 2 string lengths + tick and server counts
	pools := make(map[PoolKey]*poolAcc, npools)
	for i := 0; i < npools && d.err == nil; i++ {
		key := PoolKey{DC: d.string(), Pool: d.string()}
		p := &poolAcc{ticks: make(map[int]*tickAcc), servers: make(map[string]*serverAcc)}

		nticks := d.count(80) // 2 uint32s + 9 float64s
		for j := 0; j < nticks && d.err == nil; j++ {
			tick := int(d.uint32())
			t := &tickAcc{servers: int(d.uint32())}
			t.rps = d.float()
			t.cpu = d.float()
			t.latency = d.float()
			t.netBytes = d.float()
			t.netPkts = d.float()
			t.memPages = d.float()
			t.diskQueue = d.float()
			t.diskRead = d.float()
			t.errs = d.float()
			p.ticks[tick] = t
		}

		nservers := d.count(20) // ≥ 2 string lengths + 3 uint32s
		for j := 0; j < nservers && d.err == nil; j++ {
			name := d.string()
			s := &serverAcc{generation: d.string()}
			s.online = int(d.uint32())
			s.windows = int(d.uint32())
			ncpu := d.count(8)
			if d.err == nil && ncpu > 0 {
				s.cpu = make([]float64, ncpu)
				for k := range s.cpu {
					s.cpu[k] = d.float()
				}
			}
			p.servers[name] = s
		}
		pools[key] = p
	}
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("metrics: %d trailing bytes after aggregator payload", d.remaining())
	}
	a.pools, a.cursors, a.last = pools, nil, nil
	return nil
}

// --- primitive encoding ---------------------------------------------------

func appendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendString(buf []byte, s string) []byte {
	buf = appendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// wireDecoder reads the primitives back, latching the first error so the
// decode loops stay linear instead of error-checking every field.
type wireDecoder struct {
	buf []byte
	off int
	err error
}

func (d *wireDecoder) remaining() int { return len(d.buf) - d.off }

func (d *wireDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.err = fmt.Errorf("metrics: truncated aggregator payload (want %d bytes, have %d)", n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *wireDecoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count reads an element-count prefix and validates it against the bytes
// still in the buffer, where min is the smallest possible encoded size of
// one element. Oversized or wrapped-negative counts latch an error instead
// of sizing an allocation.
func (d *wireDecoder) count(min int) int {
	n := int(int32(d.uint32()))
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.remaining()/min {
		d.err = fmt.Errorf("metrics: corrupt aggregator payload (count %d needs %d+ bytes, have %d)", n, n*min, d.remaining())
		return 0
	}
	return n
}

// float rejects NaN and ±Inf: accumulated simulation state is always
// finite, so a non-finite value marks a corrupt payload. Letting it through
// would poison every aggregate it is merged into.
func (d *wireDecoder) float() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.err = fmt.Errorf("metrics: non-finite value in aggregator payload")
		return 0
	}
	return v
}

func (d *wireDecoder) string() string {
	n := int(d.uint32())
	if d.err == nil && n > d.remaining() {
		d.err = fmt.Errorf("metrics: truncated aggregator payload (string of %d bytes, have %d)", n, d.remaining())
		return ""
	}
	return string(d.bytes(n))
}
