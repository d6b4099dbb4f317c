package trace_test

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"headroom/internal/sim"
	"headroom/internal/trace"
)

// poolDay is the trace `capsim -days 1 -pools B -seed 7` writes: nine
// datacenters, 396 000 records, zeros in about an eighth of the float fields
// and 15- to 17-digit floats in the rest. recs are the simulator's records and
// csv the bytes CSVWriter makes of them, in the simulator's steps.
var poolDay = sync.OnceValues(func() (recs []trace.Record, csv []byte) {
	cfg := sim.DefaultFleet(7)
	cfg.Pools = slices.DeleteFunc(cfg.Pools, func(p sim.PoolConfig) bool { return p.Name != "B" })
	s, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	w := trace.NewCSVWriter(&buf)
	err = s.RunSteps(context.Background(), s.TicksPerDay(), func(step []trace.Record) error {
		recs = append(recs, step...)
		return w.WriteRun(step)
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		panic(err)
	}
	return recs, buf.Bytes()
})

// TestPlainRowsDecideAPoolDay decodes the pool-day's CSV, as written and
// with "\r\n" line ends. Every row of it is in CSVWriter's plain form, so
// every one must take the one-pass row path and come back bit for bit the
// simulator's record: a fast path that quietly declines everything is
// correct and useless, and this is where that fails a test instead of a
// benchmark.
func TestPlainRowsDecideAPoolDay(t *testing.T) {
	want, data := poolDay()
	if len(want) != 396_000 {
		t.Fatalf("%d records: not the pool-day", len(want))
	}
	for name, data := range map[string][]byte{"\\n": data, "\\r\\n": bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n"))} {
		var got []trace.Record
		plain, err := trace.DecodeCSVPlain(bytes.NewReader(data), func(run []trace.Record) error {
			got = append(got, run...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain != int64(len(want)) {
			t.Errorf("%s: the one-pass path decoded %d of %d rows", name, plain, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d records, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !trace.SameRecord(got[i], want[i]) {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkTraceCSVPoolDay encodes and decodes the pool-day with one worker
// and with two: the traffic capsim and capplan carry, not BenchmarkTraceCSV's
// stand-in of uniform random floats in one datacenter. Like
// BenchmarkTraceCSV it sets GOMAXPROCS itself.
func BenchmarkTraceCSVPoolDay(b *testing.B) {
	recs, data := poolDay()
	encode := func(b *testing.B) {
		w := trace.NewCSVWriter(io.Discard)
		for run := recs; len(run) > 0; run = run[min(len(run), 550):] {
			if err := w.WriteRun(run[:min(len(run), 550)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	decode := func(b *testing.B) {
		var n int
		err := trace.Decode(context.Background(), bytes.NewReader(data), func(run []trace.Record) error {
			n += len(run)
			return nil
		})
		if err != nil || n != len(recs) {
			b.Fatal(n, err)
		}
	}
	for _, bm := range []struct {
		name  string
		procs int
		op    func(*testing.B)
	}{{"encode/procs=1", 1, encode}, {"encode/procs=2", 2, encode}, {"decode/procs=1", 1, decode}, {"decode/procs=2", 2, decode}} {
		b.Run(bm.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bm.procs))
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				bm.op(b)
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}

// TestFractionRunOnAPoolDay: at every offset of the pool-day's CSV the
// word-at-a-time digit scan reads what the byte loop reads.
func TestFractionRunOnAPoolDay(t *testing.T) {
	_, data := poolDay()
	for i := range data {
		m, n := trace.FractionRun(data, i, 7)
		wm, wn := trace.DigitRun(data, i, 7)
		if m != wm || n != wn {
			t.Fatalf("offset %d (%q): fractionRun = %d, %d; the byte loop's %d, %d", i, data[i:min(i+24, len(data))], m, n, wm, wn)
		}
	}
}
