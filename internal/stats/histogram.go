package stats

import (
	"fmt"
	"math"
	"sort"
)

// Bin is one histogram bucket over [Lo, Hi) (the last bin is inclusive of
// its upper edge).
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Histogram is a fixed-width histogram over a closed range.
type Histogram struct {
	Bins  []Bin
	Total int
}

// NewHistogram builds a histogram of xs with n equal-width bins spanning
// [lo, hi]. Values outside the range are clamped into the edge bins, which
// matches how the paper buckets CPU utilisation (0..100%).
func NewHistogram(xs []float64, n int, lo, hi float64) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("histogram: non-positive bin count %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("histogram: empty range [%v, %v]", lo, hi)
	}
	h := &Histogram{Bins: make([]Bin, n)}
	w := (hi - lo) / float64(n)
	for i := range h.Bins {
		h.Bins[i].Lo = lo + float64(i)*w
		h.Bins[i].Hi = lo + float64(i+1)*w
	}
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Bins[i].Count++
		h.Total++
	}
	return h, nil
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input is copied.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("ecdf: %w", ErrEmptyInput)
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}
