package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RANSACConfig controls robust polynomial fitting. The paper (§II-B2) fits
// its second-order latency models with RANSAC because production experiment
// windows are contaminated by deployments, traffic shifts and other natural
// changes in server counts.
type RANSACConfig struct {
	// Degree of the polynomial model (2 for the paper's latency fits).
	Degree int
	// MaxIterations bounds the number of random minimal-subset trials.
	MaxIterations int
	// InlierThreshold is the absolute residual below which a point counts
	// as an inlier. When zero, a threshold is derived from the median
	// absolute deviation of a preliminary full-data fit (2.5 * MAD).
	InlierThreshold float64
	// Seed for the deterministic random source.
	Seed int64
}

// minInlierFrac aborts a fit whose best consensus set covers less than this
// fraction of the data.
const minInlierFrac = 0.5

// RANSACResult is a robust polynomial fit together with its consensus set.
type RANSACResult struct {
	Model      Polynomial
	Inliers    []int // indices of inlier observations, ascending
	InlierFrac float64
	Threshold  float64
	Iterations int
}

// RANSAC fits a polynomial of cfg.Degree to (xs, ys), ignoring outliers.
// It repeatedly fits minimal subsets, keeps the model with the largest
// consensus set, and refits on that set. The final model is an OLS fit over
// the inliers only.
func RANSAC(xs, ys []float64, cfg RANSACConfig) (RANSACResult, error) {
	if len(xs) != len(ys) {
		return RANSACResult{}, fmt.Errorf("ransac: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	minPts := cfg.Degree + 1
	if len(xs) < minPts+2 {
		return RANSACResult{}, fmt.Errorf("ransac: need >= %d points for degree %d, got %d", minPts+2, cfg.Degree, len(xs))
	}
	iters := cfg.MaxIterations
	if iters <= 0 {
		iters = 200
	}

	threshold := cfg.InlierThreshold
	if threshold <= 0 {
		full, err := PolyFit(xs, ys, cfg.Degree)
		if err != nil {
			return RANSACResult{}, err
		}
		resid := make([]float64, len(xs))
		for i := range xs {
			resid[i] = math.Abs(ys[i] - full.Predict(xs[i]))
		}
		mad := Median(resid)
		if mad == 0 {
			mad = 1e-9
		}
		threshold = 2.5 * mad
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	best := []int(nil)
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sampleX := make([]float64, minPts)
	sampleY := make([]float64, minPts)
	performed := 0
	for it := 0; it < iters; it++ {
		performed++
		// Draw a minimal subset without replacement (partial shuffle).
		for i := 0; i < minPts; i++ {
			j := i + rng.Intn(len(idx)-i)
			idx[i], idx[j] = idx[j], idx[i]
			sampleX[i] = xs[idx[i]]
			sampleY[i] = ys[idx[i]]
		}
		model, err := PolyFit(sampleX, sampleY, cfg.Degree)
		if err != nil {
			continue // degenerate sample (e.g. duplicated x); try again
		}
		var inliers []int
		for i := range xs {
			if math.Abs(ys[i]-model.Predict(xs[i])) <= threshold {
				inliers = append(inliers, i)
			}
		}
		if len(inliers) > len(best) {
			best = inliers
			// Early exit when almost everything agrees.
			if len(best) >= len(xs)-minPts {
				break
			}
		}
	}
	if float64(len(best)) < minInlierFrac*float64(len(xs)) {
		return RANSACResult{}, fmt.Errorf("ransac: best consensus %d/%d below minimum fraction %.2f",
			len(best), len(xs), minInlierFrac)
	}
	sort.Ints(best)
	inX := make([]float64, len(best))
	inY := make([]float64, len(best))
	for i, j := range best {
		inX[i] = xs[j]
		inY[i] = ys[j]
	}
	model, err := PolyFit(inX, inY, cfg.Degree)
	if err != nil {
		return RANSACResult{}, fmt.Errorf("ransac refit: %w", err)
	}
	return RANSACResult{
		Model:      model,
		Inliers:    best,
		InlierFrac: float64(len(best)) / float64(len(xs)),
		Threshold:  threshold,
		Iterations: performed,
	}, nil
}
