package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{42}, 42},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-1, -2, -3}, -2},
		{"mixed", []float64{-5, 5, 10, -10}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	tests := []struct {
		name    string
		in      []float64
		wantVar float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{3}, math.NaN()},
		{"constant", []float64{4, 4, 4, 4}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 32.0 / 7.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.in); !almostEqual(got, tt.wantVar, 1e-12) {
				t.Errorf("Variance(%v) = %v, want %v", tt.in, got, tt.wantVar)
			}
			wantSD := math.Sqrt(tt.wantVar)
			if got := StdDev(tt.in); !almostEqual(got, wantSD, 1e-12) {
				t.Errorf("StdDev(%v) = %v, want %v", tt.in, got, wantSD)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	in := []float64{3, -1, 7, 0, 7, -1}
	if got := Max(in); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("Max of empty slice should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, math.NaN()},
		{"out of range low", []float64{1}, -1, math.NaN()},
		{"out of range high", []float64{1}, 101, math.NaN()},
		{"single any p", []float64{9}, 75, 9},
		{"median even", []float64{1, 2, 3, 4}, 50, 2.5},
		{"median odd", []float64{5, 1, 3}, 50, 3},
		{"p0 is min", []float64{4, 2, 8}, 0, 2},
		{"p100 is max", []float64{4, 2, 8}, 100, 8},
		{"interpolated", []float64{10, 20, 30, 40}, 25, 17.5},
		{"p95 of 1..100", seq(1, 100), 95, 95.05},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Percentile(tt.in, tt.p); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tt.in, tt.p, got, tt.want)
			}
		})
	}
}

func seq(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	want := []float64{5, 1, 4, 2, 3}
	Percentile(in, 50)
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("input mutated: %v", in)
		}
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	in := []float64{9, 3, 7, 1, 5, 8, 2}
	ps := []float64{5, 25, 50, 75, 95}
	got := Percentiles(in, ps...)
	for i, p := range ps {
		want := Percentile(in, p)
		if !almostEqual(got[i], want, 1e-12) {
			t.Errorf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
}

func TestCovariancePearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10} // perfectly correlated
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
	if _, err := Pearson(xs, []float64{1, 1, 1, 1, 1}); err == nil {
		t.Error("Pearson with zero-variance input should error")
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("Pearson with mismatched lengths should error")
	}
	if _, err := Covariance(nil, nil); err == nil {
		t.Error("Covariance of empty inputs should error")
	}
}

func TestRSquared(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	perfect := []float64{1, 2, 3, 4}
	r2, err := RSquared(ys, perfect)
	if err != nil || !almostEqual(r2, 1, 1e-12) {
		t.Errorf("RSquared perfect = %v, %v; want 1, nil", r2, err)
	}
	meanOnly := []float64{2.5, 2.5, 2.5, 2.5}
	r2, err = RSquared(ys, meanOnly)
	if err != nil || !almostEqual(r2, 0, 1e-12) {
		t.Errorf("RSquared mean predictor = %v, %v; want 0, nil", r2, err)
	}
	if _, err := RSquared(ys, perfect[:2]); err == nil {
		t.Error("RSquared mismatched lengths should error")
	}
	if _, err := RSquared(nil, nil); err == nil {
		t.Error("RSquared empty should error")
	}
	// Zero-variance observations.
	flat := []float64{5, 5, 5}
	r2, err = RSquared(flat, []float64{5, 5, 5})
	if err != nil || r2 != 1 {
		t.Errorf("RSquared flat perfect = %v, want 1", r2)
	}
	r2, err = RSquared(flat, []float64{4, 5, 6})
	if err != nil || r2 != 0 {
		t.Errorf("RSquared flat imperfect = %v, want 0", r2)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(seq(1, 100))
	if s.N != 100 {
		t.Errorf("N = %d, want 100", s.N)
	}
	if !almostEqual(s.Mean, 50.5, 1e-12) {
		t.Errorf("Mean = %v, want 50.5", s.Mean)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("Min/Max = %v/%v, want 1/100", s.Min, s.Max)
	}
	if !(s.P5 < s.P25 && s.P25 < s.P50 && s.P50 < s.P75 && s.P75 < s.P95) {
		t.Errorf("percentiles not monotone: %+v", s)
	}

	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("Summarize(nil) = %+v, want N=0 and NaN mean", empty)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := Percentile(xs, p1)
		v2 := Percentile(xs, p2)
		return v1 <= v2 && v1 >= slices.Min(xs) && v2 <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max] for any non-empty finite sample.
func TestMeanBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		m := Mean(xs)
		if m < slices.Min(xs)-1e-9 || m > Max(xs)+1e-9 {
			t.Fatalf("mean %v outside [%v, %v]", m, slices.Min(xs), Max(xs))
		}
	}
}

// Property: Summarize percentiles agree with a direct sort.
func TestSummarizeConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		s := Summarize(xs)
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		if !almostEqual(s.P50, PercentileSorted(sorted, 50), 1e-9) {
			t.Fatalf("P50 mismatch: %v vs %v", s.P50, PercentileSorted(sorted, 50))
		}
		if s.Min != sorted[0] || s.Max != sorted[n-1] {
			t.Fatalf("min/max mismatch")
		}
	}
}
