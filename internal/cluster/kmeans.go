// Package cluster implements k-means clustering with automatic cluster
// count selection via the mean silhouette score.
//
// The measurement step of the methodology (§II-A2 of the paper) inspects the
// scatter of per-server (5th percentile CPU, 95th percentile CPU) points to
// find groups of servers with the same workload→resource response — e.g. a
// pool mixing two hardware generations appears as two clusters. This package
// provides that detection.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoData is returned when clustering is attempted on an empty dataset.
var ErrNoData = errors.New("cluster: no data")

// Point is a point in d-dimensional space.
type Point []float64

// dist2 returns the squared Euclidean distance between p and q.
func dist2(p, q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Result is the outcome of a k-means run.
type Result struct {
	K          int
	Centroids  []Point
	Assignment []int // Assignment[i] is the cluster index of point i
	Inertia    float64
	Iterations int
	// Silhouette is the mean silhouette SelectK scored this result by; zero
	// for K == 1 and for results KMeans returns directly.
	Silhouette float64
}

// Config controls a k-means run.
type Config struct {
	K    int
	Seed int64 // deterministic random source
}

const (
	maxIterations = 100 // Lloyd iterations per run
	restarts      = 5   // independent initialisations, best inertia wins
)

// KMeans clusters points into cfg.K clusters using Lloyd's algorithm with
// k-means++ initialisation and several restarts.
func KMeans(points []Point, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: invalid k %d", cfg.K)
	}
	if cfg.K > len(points) {
		return nil, fmt.Errorf("cluster: k %d > number of points %d", cfg.K, len(points))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var best *Result
	for r := 0; r < restarts; r++ {
		res := runLloyd(points, cfg.K, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// runLloyd executes one k-means run with k-means++ seeding.
func runLloyd(points []Point, k int, rng *rand.Rand) *Result {
	dim := len(points[0])
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	prev := make([]int, len(points))
	for i := range prev {
		prev[i] = -1
	}

	iters := 0
	for ; iters < maxIterations; iters++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, ctr := range centroids {
				if d := dist2(p, ctr); d < bestD {
					bestC, bestD = c, d
				}
			}
			assign[i] = bestC
			if assign[i] != prev[i] {
				changed = true
			}
		}
		if !changed {
			break
		}
		copy(prev, assign)

		// Recompute centroids; re-seed empty clusters from the farthest
		// point to avoid dead centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				sums[c][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				centroids[c] = farthestPoint(points, centroids)
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}

	var inertia float64
	for i, p := range points {
		inertia += dist2(p, centroids[assign[i]])
	}
	out := &Result{
		K:          k,
		Centroids:  centroids,
		Assignment: append([]int(nil), assign...),
		Inertia:    inertia,
		Iterations: iters,
	}
	return out
}

// seedPlusPlus picks k initial centroids with the k-means++ heuristic.
func seedPlusPlus(points []Point, k int, rng *rand.Rand) []Point {
	centroids := make([]Point, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, clonePoint(first))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := dist2(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with a centroid; duplicate one.
			centroids = append(centroids, clonePoint(points[rng.Intn(len(points))]))
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(points) - 1
		for i, d := range d2 {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, clonePoint(points[pick]))
	}
	return centroids
}

func farthestPoint(points []Point, centroids []Point) Point {
	bestI, bestD := 0, -1.0
	for i, p := range points {
		near := math.Inf(1)
		for _, c := range centroids {
			if d := dist2(p, c); d < near {
				near = d
			}
		}
		if near > bestD {
			bestI, bestD = i, near
		}
	}
	return clonePoint(points[bestI])
}

func clonePoint(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Silhouette returns the mean silhouette coefficient of a clustering, in
// [-1, 1]. Higher is better separated. Points in singleton clusters
// contribute 0, following the standard convention.
func Silhouette(points []Point, assignment []int, k int) (float64, error) {
	if len(points) != len(assignment) {
		return 0, fmt.Errorf("cluster: %d points vs %d assignments", len(points), len(assignment))
	}
	if len(points) == 0 {
		return 0, ErrNoData
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs k >= 2, got %d", k)
	}
	sizes := make([]int, k)
	for _, c := range assignment {
		if c < 0 || c >= k {
			return 0, fmt.Errorf("cluster: assignment %d out of range [0,%d)", c, k)
		}
		sizes[c]++
	}
	var total float64
	sums := make([]float64, k)
	for i, p := range points {
		ci := assignment[i]
		if sizes[ci] <= 1 {
			continue // silhouette of a singleton is 0
		}
		// Mean distance to own cluster (a) and nearest other cluster (b).
		clear(sums)
		for j, q := range points {
			if i == j {
				continue
			}
			sums[assignment[j]] += math.Sqrt(dist2(p, q))
		}
		a := sums[ci] / float64(sizes[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			if m := sums[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue // only one non-empty cluster
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(len(points)), nil
}

// SelectK clusters points for each k in [1, maxK] and returns the best
// result by mean silhouette (k = 1 is chosen when no multi-cluster split
// achieves a silhouette of at least minSilhouette). This mirrors how the
// paper decides whether a pool's servers form one capacity-planning group
// or several.
func SelectK(points []Point, maxK int, minSilhouette float64, seed int64) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if maxK < 1 {
		return nil, fmt.Errorf("cluster: invalid maxK %d", maxK)
	}
	single := &Result{
		K:          1,
		Centroids:  []Point{meanPoint(points)},
		Assignment: make([]int, len(points)),
	}
	for _, p := range points {
		single.Inertia += dist2(p, single.Centroids[0])
	}
	best := single
	bestScore := minSilhouette
	for k := 2; k <= maxK && k <= len(points); k++ {
		res, err := KMeans(points, Config{K: k, Seed: seed + int64(k)})
		if err != nil {
			return nil, err
		}
		score, err := Silhouette(points, res.Assignment, k)
		if err != nil {
			return nil, err
		}
		if score > bestScore {
			best = res
			best.Silhouette = score
			bestScore = score
		}
	}
	return best, nil
}

func meanPoint(points []Point) Point {
	dim := len(points[0])
	m := make(Point, dim)
	for _, p := range points {
		for d := 0; d < dim; d++ {
			m[d] += p[d]
		}
	}
	for d := 0; d < dim; d++ {
		m[d] /= float64(len(points))
	}
	return m
}
