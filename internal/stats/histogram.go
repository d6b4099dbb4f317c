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

// histogramBins is the number of bins NewHistogram divides its range into:
// 5-point CPU buckets over 0..100%, as the paper's Figure 13 draws them.
const histogramBins = 20

// NewHistogram builds a histogram of xs with histogramBins equal-width bins
// spanning [0, hi]. Values outside the range are clamped into the edge bins,
// which matches how the paper buckets CPU utilisation (0..100%).
func NewHistogram(xs []float64, hi float64) (*Histogram, error) {
	if hi <= 0 {
		return nil, fmt.Errorf("histogram: empty range [0, %v]", hi)
	}
	h := &Histogram{Bins: make([]Bin, histogramBins)}
	w := hi / histogramBins
	for i := range h.Bins {
		h.Bins[i].Lo = float64(i) * w
		h.Bins[i].Hi = float64(i+1) * w
	}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}

// Add counts x into its bin, clamped into the edge bins. Bins[0].Hi is the
// bin width.
func (h *Histogram) Add(x float64) {
	i := int(x / h.Bins[0].Hi)
	i = max(0, min(i, len(h.Bins)-1))
	h.Bins[i].Count++
	h.Total++
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
