package trace_test

import (
	"context"
	"math"
	"slices"
	"strconv"
	"testing"

	"headroom/internal/sim"
	"headroom/internal/trace"
)

// TestFloatKernelsDecideAPoolDay formats and re-parses every float of the
// trace `capsim -days 1 -pools B -seed 7` writes. The kernels must agree with
// strconv on all of them, as everywhere, and must decide at least 99.9 % each
// way: a kernel that quietly declines everything is correct and useless, and
// this is where that fails a test instead of a benchmark.
func TestFloatKernelsDecideAPoolDay(t *testing.T) {
	cfg := sim.DefaultFleet(7)
	cfg.Pools = slices.DeleteFunc(cfg.Pools, func(p sim.PoolConfig) bool { return p.Name != "B" })
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var floats, formatted, parsed int
	var got, want []byte
	err = s.RunSteps(context.Background(), s.TicksPerDay(), func(step []trace.Record) error {
		for i := range step {
			for _, p := range step[i].Floats() {
				v := *p
				floats++
				want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
				var ok bool
				if got, ok = trace.AppendFloatKernel(got[:0], v); ok {
					formatted++
					if string(got) != string(want) {
						t.Fatalf("appendFloat(%v) = %q, strconv's %q", v, got, want)
					}
				}
				if back, ok := trace.ParseFloatKernel(want); ok {
					parsed++
					if math.Float64bits(back) != math.Float64bits(v) {
						t.Fatalf("parseFloat(%q) = %v, strconv's %v", want, back, v)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d floats: appendFloat decided %d, parseFloat %d", floats, formatted, parsed)
	if floats < 3_000_000 {
		t.Errorf("%d floats: not a pool-day", floats)
	}
	if min(formatted, parsed)*1000 < floats*999 {
		t.Errorf("of %d floats appendFloat decided %d and parseFloat %d: under 99.9 %%", floats, formatted, parsed)
	}
}
