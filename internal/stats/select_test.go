package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The oracle: the copy-and-sort implementations selection replaced, kept
// verbatim so every result can be compared bit for bit.

func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

func oraclePercentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	sorted := sortedCopy(xs)
	for i, p := range ps {
		if len(xs) == 0 || !(p >= 0 && p <= 100) {
			out[i] = math.NaN()
			continue
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

func oracleSummarize(xs []float64) Summary {
	ps := oraclePercentiles(xs, 5, 25, 50, 75, 95)
	return Summary{
		N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs), Min: oracleMin(xs), Max: Max(xs),
		P5: ps[0], P25: ps[1], P50: ps[2], P75: ps[3], P95: ps[4],
	}
}

// oracleMin is the minimum the summary's Min replaced: a NaN in front is
// kept, a NaN elsewhere is skipped.
func oracleMin(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// sameBits is bit equality, except that any NaN matches any NaN and the two
// zeros match each other: they compare equal, so the sort's choice between
// them was never defined.
func sameBits(a, b float64) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func summaryFields(s Summary) []float64 {
	return []float64{float64(s.N), s.Mean, s.StdDev, s.Min, s.Max, s.P5, s.P25, s.P50, s.P75, s.P95}
}

// selectShapes are the input shapes the selection must order exactly. Each
// takes n and a seeded source.
var selectShapes = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []float64
}{
	{"random", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return rng.Float64() * 100 })
	}},
	{"normal", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return 40 + 12*rng.NormFloat64() })
	}},
	{"constant", func(n int, _ *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return 7.25 })
	}},
	{"sorted", func(n int, _ *rand.Rand) []float64 {
		return fill(n, func(i int) float64 { return float64(i) * 0.1 })
	}},
	{"reversed", func(n int, _ *rand.Rand) []float64 {
		return fill(n, func(i int) float64 { return float64(n-i) * 0.1 })
	}},
	{"organ-pipe", func(n int, _ *rand.Rand) []float64 {
		return fill(n, func(i int) float64 { return float64(min(i, n-1-i)) })
	}},
	{"few-distinct", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(3)) - 1 })
	}},
	// One outlier stretches the range so every other value shares a bucket.
	{"huge-outlier", func(n int, rng *rand.Rand) []float64 {
		xs := fill(n, func(int) float64 { return rng.Float64() })
		xs[rng.Intn(n)] = 1e300
		return xs
	}},
	// max-min overflows to +Inf.
	{"range-overflow", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return (rng.Float64() - 0.5) * math.MaxFloat64 * 2 })
	}},
	// max-min is subnormal, so the bucket scale overflows.
	{"subnormal-range", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(4)) * math.SmallestNonzeroFloat64 })
	}},
	{"infinities", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		})
	}},
	{"nan-bearing", func(n int, rng *rand.Rand) []float64 {
		xs := fill(n, func(int) float64 { return rng.NormFloat64() })
		for i := 0; i <= n/10; i++ {
			xs[rng.Intn(n)] = math.NaN()
		}
		return xs
	}},
	{"nan-first", func(n int, rng *rand.Rand) []float64 {
		xs := fill(n, func(int) float64 { return rng.Float64() })
		xs[0] = math.NaN()
		return xs
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// selectSizes covers every n to 100, a stride to 2000, and both sides of
// selectMaxBuckets.
func selectSizes() []int {
	var ns []int
	for n := 1; n <= 100; n++ {
		ns = append(ns, n)
	}
	for n := 101; n <= 2000; n += 37 {
		ns = append(ns, n)
	}
	return append(ns, 720, 2000, selectMaxBuckets-1, selectMaxBuckets, selectMaxBuckets+1, 3*selectMaxBuckets+5)
}

// Property: every percentile and summary is bit-identical to the
// copy-and-sort oracle, on one Selector reused across all shapes and
// sizes (so stale scratch from a larger call must not leak into a smaller).
func TestSelectionMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sel Selector
	for _, shape := range selectShapes {
		for _, n := range selectSizes() {
			xs := shape.gen(n, rng)
			orig := append([]float64(nil), xs...)
			// Unsorted, duplicated, boundary and out-of-range ranks.
			ps := []float64{95, 0, 100, 50, 5, 25, 50, 75, 99.9, rng.Float64() * 100, -1, 100.5, math.NaN()}
			got, want := Percentiles(xs, ps...), oraclePercentiles(xs, ps...)
			for i := range ps {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s n=%d: Percentiles p=%v = %v (%#x), sort gives %v (%#x)", shape.name, n, ps[i],
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			if g, w := Percentile(xs, 95), want[0]; !sameBits(g, w) {
				t.Fatalf("%s n=%d: Percentile(95) = %v, sort gives %v", shape.name, n, g, w)
			}
			if g, w := Median(xs), want[3]; !sameBits(g, w) {
				t.Fatalf("%s n=%d: Median = %v, sort gives %v", shape.name, n, g, w)
			}
			gs, ws := summaryFields(sel.Summarize(xs)), summaryFields(oracleSummarize(xs))
			for i := range gs {
				if !sameBits(gs[i], ws[i]) {
					t.Fatalf("%s n=%d: Summarize field %d = %v, oracle %v", shape.name, n, i, gs[i], ws[i])
				}
			}
			for i := range xs {
				if !sameBits(xs[i], orig[i]) {
					t.Fatalf("%s n=%d: input modified at %d", shape.name, n, i)
				}
			}
		}
	}
}

// Property: place keeps every value, puts each requested rank where the sort
// does, and leaves nothing larger before it or smaller after it.
func TestPlacePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sel Selector
	for _, shape := range selectShapes {
		for _, n := range []int{1, 2, 33, 720, 2000, selectMaxBuckets + 1} {
			xs := shape.gen(n, rng)
			idx := []int{0, n / 20, n / 4, n / 2, n / 2, 3 * n / 4, n - 1}
			sort.Ints(idx)
			placed := sel.place(xs, idx)
			sorted := sortedCopy(xs)
			for _, i := range idx {
				if !sameBits(placed[i], sorted[i]) {
					t.Fatalf("%s n=%d: rank %d holds %v, sort puts %v", shape.name, n, i, placed[i], sorted[i])
				}
				for j, x := range placed {
					if (j < i && x > placed[i]) || (j > i && x < placed[i]) {
						t.Fatalf("%s n=%d: %v at %d is on the wrong side of rank %d (%v)", shape.name, n, x, j, i, placed[i])
					}
				}
			}
			for i, x := range sortedCopy(placed) {
				if !sameBits(x, sorted[i]) {
					t.Fatalf("%s n=%d: placed values are not a permutation of the input", shape.name, n)
				}
			}
		}
	}
}

func TestSelectorSummarizeEmpty(t *testing.T) {
	var sel Selector
	got := sel.Summarize(nil)
	if got.N != 0 {
		t.Fatalf("N = %d", got.N)
	}
	for i, v := range summaryFields(got)[1:] {
		if !math.IsNaN(v) {
			t.Errorf("field %d of an empty summary = %v, want NaN", i+1, v)
		}
	}
}

func TestSelectorSummarizeDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	xs := fill(720, func(int) float64 { return 40 + 12*rng.NormFloat64() })
	var sel Selector
	sel.Summarize(xs)
	if allocs := testing.AllocsPerRun(50, func() { sel.Summarize(xs) }); allocs != 0 {
		t.Errorf("Summarize on a warmed Selector allocated %v times per run", allocs)
	}
}

func floatsToBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzPercentiles compares selection with the sort oracle on arbitrary bit
// patterns and ranks. The seed corpus is the property test's shapes.
func FuzzPercentiles(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for _, shape := range selectShapes {
		for _, n := range []int{1, 3, 40, 720} {
			f.Add(floatsToBytes(shape.gen(n, rng)), 5.0, 95.0)
		}
	}
	f.Add(floatsToBytes([]float64{0, math.Copysign(0, -1), 1}), 0.0, 100.0)
	f.Fuzz(func(t *testing.T, data []byte, p, q float64) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		ps := []float64{p, q, 50, p}
		got, want := Percentiles(xs, ps...), oraclePercentiles(xs, ps...)
		for i := range ps {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d p=%v: %v (%#x), sort gives %v (%#x)", len(xs), ps[i],
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		gs, ws := summaryFields(Summarize(xs)), summaryFields(oracleSummarize(xs))
		for i := range gs {
			if !sameBits(gs[i], ws[i]) {
				t.Fatalf("n=%d: Summarize field %d = %v, oracle %v", len(xs), i, gs[i], ws[i])
			}
		}
	})
}
