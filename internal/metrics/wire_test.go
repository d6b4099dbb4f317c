package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"headroom/internal/trace"
)

// wireFixture builds an aggregator with two pools, offline windows, and
// awkward float values (negative zero, tiny subnormals) that would not
// survive a text round-trip.
func wireFixture() *Aggregator {
	a := NewAggregator()
	recs := []trace.Record{
		{Tick: 0, DC: "dc1", Pool: "A", Server: "a-1", Generation: "g1", Online: true, RPS: 10.5, CPUPct: 37.25, LatencyMs: 3.125, NetBytes: 1e9, Errors: 0.1},
		{Tick: 0, DC: "dc1", Pool: "A", Server: "a-2", Generation: "g2", Online: true, RPS: 11, CPUPct: math.Copysign(0, -1), LatencyMs: 2.5},
		{Tick: 1, DC: "dc1", Pool: "A", Server: "a-1", Generation: "g1", Online: false},
		{Tick: 0, DC: "dc2", Pool: "B", Server: "b-1", Generation: "g1", Online: true, RPS: 0.1 + 0.2, CPUPct: 5e-324, LatencyMs: 7},
		{Tick: 3, DC: "dc2", Pool: "B", Server: "b-1", Generation: "g1", Online: true, RPS: 1.0 / 3.0, CPUPct: 99.999, LatencyMs: 1e-12},
	}
	a.AddAll(recs)
	return a
}

func TestWireRoundTripExact(t *testing.T) {
	a := wireFixture()
	enc, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var b Aggregator
	if err := b.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(a.pools, b.pools) {
		t.Fatalf("decoded aggregator differs from original:\n%#v\nvs\n%#v", a.pools, b.pools)
	}
	// Determinism: re-encoding the decoded state yields the same bytes.
	enc2, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoded payload differs: %d vs %d bytes", len(enc), len(enc2))
	}
}

func TestWireDecodedMergesIdentically(t *testing.T) {
	// Merging a decoded shard must equal merging the original shard: the
	// property distributed aggregation rests on.
	shard1, shard2 := wireFixture(), NewAggregator()
	shard2.AddAll([]trace.Record{
		{Tick: 0, DC: "dc3", Pool: "C", Server: "c-1", Generation: "g1", Online: true, RPS: 4, CPUPct: 40, LatencyMs: 4},
	})
	enc, err := shard2.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var remote Aggregator
	if err := remote.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	local := wireFixture()
	local.Merge(shard2)
	shard1.Merge(&remote)
	if !reflect.DeepEqual(local.pools, shard1.pools) {
		t.Fatal("merge of decoded shard differs from merge of original shard")
	}
}

func TestWireRejectsCorruptPayloads(t *testing.T) {
	enc, err := wireFixture().MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	cases := map[string][]byte{
		"empty":      nil,
		"bad magic":  append([]byte("XXXX"), enc[4:]...),
		"truncated":  enc[:len(enc)/2],
		"trailing":   append(append([]byte(nil), enc...), 0xFF),
		"short head": enc[:6],
	}
	for name, payload := range cases {
		var a Aggregator
		if err := a.UnmarshalBinary(payload); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), enc...)
	bad[4] = 0xFE
	var a Aggregator
	if err := a.UnmarshalBinary(bad); err == nil {
		t.Error("wrong version: decode succeeded, want error")
	}
}

func TestWireEmptyAggregator(t *testing.T) {
	enc, err := NewAggregator().MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var a Aggregator
	if err := a.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := a.Pools(); len(got) != 0 {
		t.Fatalf("decoded empty aggregator has pools %v", got)
	}
}

// TestWireRejectsHostilePayloads pins the hardening against forged count
// prefixes and non-finite floats: each must produce a decode error without
// sizing an allocation from attacker-controlled counts.
func TestWireRejectsHostilePayloads(t *testing.T) {
	enc, err := wireFixture().MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// Oversized pool count: a 9-byte payload claiming 2^32-1 pools must not
	// reserve a ~4-billion-entry map before discovering the truncation.
	hostile := append([]byte(nil), enc[:8]...) // magic + version
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF)
	hostile = append(hostile, 0x00)
	var a Aggregator
	if err := a.UnmarshalBinary(hostile); err == nil {
		t.Error("oversized pool count: decode succeeded, want error")
	}

	// Oversized cpu-sample count inside an otherwise valid payload.
	mutated := append([]byte(nil), enc...)
	// The first pool's first server cpu run: find it by decoding offsets is
	// brittle; instead flip every aligned uint32 to 0xFFFFFFFF one at a time
	// and require that no mutation panics (most must error; a few may decode
	// if the flipped word was a float fragment that stays finite).
	for off := 8; off+4 <= len(mutated); off += 4 {
		m := append([]byte(nil), mutated...)
		m[off], m[off+1], m[off+2], m[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
		var b Aggregator
		_ = b.UnmarshalBinary(m) // must not panic or hang
	}

	// NaN and Inf payload values are rejected.
	for name, bits := range map[string]uint64{
		"NaN":  math.Float64bits(math.NaN()),
		"+Inf": math.Float64bits(math.Inf(1)),
		"-Inf": math.Float64bits(math.Inf(-1)),
	} {
		agg := wireFixture()
		good, err := agg.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		// Overwrite the last 8 bytes — the final cpu sample — with the
		// non-finite pattern.
		m := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			m[len(m)-8+i] = byte(bits >> (8 * i))
		}
		var b Aggregator
		if err := b.UnmarshalBinary(m); err == nil {
			t.Errorf("%s payload: decode succeeded, want error", name)
		}
	}
}

// onlineMismatchPayload is the encoding of one server online in both of its
// two windows, forged to claim three windows online beside its two samples.
func onlineMismatchPayload(t testing.TB) []byte {
	a := NewAggregator()
	a.AddAll([]trace.Record{
		{Tick: 0, DC: "d", Pool: "p", Server: "s", Generation: "g", Online: true, CPUPct: 10},
		{Tick: 1, DC: "d", Pool: "p", Server: "s", Generation: "g", Online: true, CPUPct: 20},
	})
	enc, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Header and pool count, the two keys, the tick count and two ticks, the
	// server count, the server's name and generation: then its online count.
	off := 12 + 2*(4+1) + 4 + 2*80 + 4 + 2*(4+1)
	if got := binary.LittleEndian.Uint32(enc[off:]); got != 2 {
		t.Fatalf("online count at offset %d reads %d, want 2", off, got)
	}
	binary.LittleEndian.PutUint32(enc[off:], 3)
	return enc
}

// TestWireRejectsOnlineSampleMismatch: a server's sample count is its online
// count, so a payload where they differ is refused, naming both.
func TestWireRejectsOnlineSampleMismatch(t *testing.T) {
	var a Aggregator
	err := a.UnmarshalBinary(onlineMismatchPayload(t))
	if err == nil || !strings.Contains(err.Error(), "3 windows online, 2 CPU samples") {
		t.Fatalf("err = %v, want the online and sample counts named", err)
	}
}

// FuzzDecodeAggregator: arbitrary bytes must never panic the decoder, and
// any payload that decodes successfully must re-encode deterministically to
// a fixed point (decode → encode → decode → encode yields equal bytes).
func FuzzDecodeAggregator(f *testing.F) {
	good, err := wireFixture().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := NewAggregator().MarshalBinary()
	f.Add(good)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("HAGG"))
	// Oversized pool count straight after the header.
	f.Add(append(append([]byte(nil), good[:8]...), 0xFF, 0xFF, 0xFF, 0xFF))
	// A server whose online count disagrees with its sample count.
	f.Add(onlineMismatchPayload(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Aggregator
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded OK but re-encode failed: %v", err)
		}
		var b Aggregator
		if err := b.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		enc2, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
