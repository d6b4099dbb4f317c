package stats

import (
	"fmt"
	"math"
	"sort"
)

// Spearman returns the Spearman rank correlation coefficient of the paired
// samples: the Pearson correlation of mid-ranked values. The measurement
// step uses it as a monotonicity check that is insensitive to the curvature
// of a relationship — a counter can be strongly monotone in workload without
// being linear.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("spearman: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("spearman: %w", ErrEmptyInput)
	}
	rx := midRanks(xs)
	ry := midRanks(ys)
	return Pearson(rx, ry)
}

// midRanks assigns 1-based mid-ranks with tie averaging.
func midRanks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	return ranks
}

// TheilSen fits a robust line by the Theil-Sen estimator: the slope is the
// median of all pairwise slopes and the intercept the median of
// y_i - slope*x_i. It tolerates up to ~29% arbitrary outliers and serves as
// a cross-check on the RANSAC line during metric refinement.
//
// Complexity is O(n²) pairwise slopes; callers should subsample histories
// beyond a few thousand points.
func TheilSen(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("theil-sen: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("theil-sen: %w", ErrEmptyInput)
	}
	slopes := make([]float64, 0, len(xs)*(len(xs)-1)/2)
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			dx := xs[j] - xs[i]
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (ys[j]-ys[i])/dx)
		}
	}
	if len(slopes) == 0 {
		return LinearFit{}, fmt.Errorf("theil-sen: zero variance in x")
	}
	slope := Median(slopes)
	resid := make([]float64, len(xs))
	for i := range xs {
		resid[i] = ys[i] - slope*xs[i]
	}
	fit := LinearFit{Slope: slope, Intercept: Median(resid), N: len(xs)}
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = fit.Predict(x)
	}
	r2, err := RSquared(ys, preds)
	if err != nil {
		return LinearFit{}, err
	}
	fit.R2 = r2
	return fit, nil
}

// MAD returns the median absolute deviation from the median, a robust scale
// estimate. Multiply by 1.4826 for consistency with the standard deviation
// under normality.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// WinsorizedMean returns the mean after clamping the lowest and highest
// frac of the sorted sample to the surviving extremes — the measurement
// pipeline uses it for counters with rare hardware-anomaly spikes.
func WinsorizedMean(xs []float64, frac float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("winsorized mean: %w", ErrEmptyInput)
	}
	if frac < 0 || frac >= 0.5 {
		return 0, fmt.Errorf("winsorized mean: fraction %v outside [0, 0.5)", frac)
	}
	// Every rank from k to n-1-k, so the surviving middle is summed in
	// ascending order; the clamped tails need no order.
	k := int(frac * float64(len(xs)))
	idx := make([]int, len(xs)-2*k)
	for i := range idx {
		idx[i] = k + i
	}
	var s Selector
	sorted := s.place(xs, idx)
	lo, hi := sorted[k], sorted[len(sorted)-1-k]
	var sum float64
	for _, x := range sorted {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		sum += x
	}
	return sum / float64(len(sorted)), nil
}
