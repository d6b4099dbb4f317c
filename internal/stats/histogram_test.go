package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramBasics(t *testing.T) {
	xs := []float64{0, 10, 20, 30, 99, 100, 150, -5}
	h, err := NewHistogram(xs, 100)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if len(h.Bins) != 20 || h.Bins[0].Hi != 5 || h.Bins[19].Lo != 95 || h.Bins[19].Hi != 100 {
		t.Errorf("bins = %d from [%v, %v) to [%v, %v], want 20 of width 5 over [0, 100]",
			len(h.Bins), h.Bins[0].Lo, h.Bins[0].Hi, h.Bins[len(h.Bins)-1].Lo, h.Bins[len(h.Bins)-1].Hi)
	}
	if h.Total != len(xs) {
		t.Errorf("Total = %d, want %d", h.Total, len(xs))
	}
	// -5 clamps into bin 0; 150 and 100 clamp into bin 19.
	if h.Bins[0].Count != 2 { // 0 and -5
		t.Errorf("bin 0 count = %d, want 2", h.Bins[0].Count)
	}
	if h.Bins[2].Count != 1 || h.Bins[4].Count != 1 || h.Bins[6].Count != 1 { // 10, 20, 30
		t.Errorf("bins 2, 4, 6 counts = %d, %d, %d, want 1 each", h.Bins[2].Count, h.Bins[4].Count, h.Bins[6].Count)
	}
	if h.Bins[19].Count != 3 { // 99, 100, 150
		t.Errorf("bin 19 count = %d, want 3", h.Bins[19].Count)
	}
	var sum int
	for _, b := range h.Bins {
		sum += b.Count
	}
	if sum != h.Total {
		t.Errorf("bin counts sum %d != total %d", sum, h.Total)
	}
	h.Add(42)
	if h.Bins[8].Count != 1 || h.Total != len(xs)+1 {
		t.Errorf("after Add(42): bin 8 count = %d, total = %d", h.Bins[8].Count, h.Total)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0); err == nil {
		t.Error("empty range should error")
	}
	if _, err := NewHistogram(nil, -1); err == nil {
		t.Error("negative range should error")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewECDF: %v", err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty ECDF should error")
	}
}

// Property: ECDF.At is monotone, bounded in [0, 1], and 1 at the largest
// observation.
func TestECDFProperties(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		if a > b {
			a, b = b, a
		}
		lo, hi := e.At(a), e.At(b)
		return lo >= 0 && lo <= hi && hi <= 1 && e.At(Max(xs)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
