// Package stats implements the statistical primitives required by the
// capacity-planning methodology: descriptive statistics, percentiles,
// histograms and empirical CDFs, ordinary least squares (simple linear and
// polynomial), robust regression via RANSAC, correlation measures, ROC/AUC,
// and k-fold splitting.
//
// Everything is implemented from scratch on top of the standard library so
// the module has no external dependencies. All functions are deterministic;
// the stochastic ones (RANSAC, KFold) take an explicit random source.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptyInput is returned by functions that cannot operate on an empty
// sample.
var ErrEmptyInput = errors.New("stats: empty input")

// ErrBadLength is returned when paired samples have mismatched lengths.
var ErrBadLength = errors.New("stats: mismatched input lengths")

// Sum returns the sum of xs. Sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Max returns the maximum of xs. It returns NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the "exclusive" variant used by most
// monitoring systems). The input is not modified. It returns NaN for an
// empty slice or a p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, p)[0]
}

// PercentileSorted is like Percentile but requires xs to be sorted
// ascending. It avoids the copy and sort, which matters in hot loops over
// 120-second windows.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || !(p >= 0 && p <= 100) { // a NaN p is outside too
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles computes several percentiles over one selection of the ranks
// they interpolate between (see Selector). ps are percentile ranks in
// [0, 100]; the result is parallel to ps.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	var s Selector
	s.percentiles(out, xs, ps)
	return out
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Covariance returns the unbiased sample covariance of the paired samples
// (xs, ys). It returns an error when the lengths differ or n < 2.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("covariance: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("covariance: %w", ErrEmptyInput)
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1), nil
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples (xs, ys). A zero-variance input yields an error because the
// coefficient is undefined.
func Pearson(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, errors.New("stats: pearson undefined for zero-variance input")
	}
	return cov / (sx * sy), nil
}

// RSquared returns the coefficient of determination for observed values ys
// against model predictions preds: 1 - SS_res/SS_tot. When the observations
// have zero variance, RSquared returns 1 if the residuals are all zero and
// 0 otherwise.
func RSquared(ys, preds []float64) (float64, error) {
	if len(ys) != len(preds) {
		return 0, fmt.Errorf("rsquared: %w (%d vs %d)", ErrBadLength, len(ys), len(preds))
	}
	if len(ys) == 0 {
		return 0, fmt.Errorf("rsquared: %w", ErrEmptyInput)
	}
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := range ys {
		r := ys[i] - preds[i]
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	return rSquared(ssRes, ssTot), nil
}

func rSquared(ssRes, ssTot float64) float64 {
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Summary holds the descriptive statistics the measurement pipeline reports
// for each metric window.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P5     float64
	P25    float64
	P50    float64
	P75    float64
	P95    float64
}

// Summarize computes a Summary of xs. The zero Summary is returned for an
// empty input (with N == 0 and NaN moments).
func Summarize(xs []float64) Summary {
	var s Selector
	return s.Summarize(xs)
}
