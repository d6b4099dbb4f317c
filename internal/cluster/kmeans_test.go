package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// twoBlobs generates two well-separated Gaussian blobs mimicking the paper's
// Figure 3: an older hardware generation at higher CPU and a newer one at
// lower CPU.
func twoBlobs(n int, seed int64) ([]Point, []int) {
	rng := rand.New(rand.NewSource(seed))
	points := make([]Point, 0, 2*n)
	labels := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		// old generation: p5 ~ 8%, p95 ~ 20%
		points = append(points, Point{8 + rng.NormFloat64()*0.8, 20 + rng.NormFloat64()*1.2})
		labels = append(labels, 0)
		// new generation: p5 ~ 3%, p95 ~ 9%
		points = append(points, Point{3 + rng.NormFloat64()*0.5, 9 + rng.NormFloat64()*0.9})
		labels = append(labels, 1)
	}
	return points, labels
}

func TestKMeansTwoBlobs(t *testing.T) {
	points, labels := twoBlobs(100, 1)
	res, err := KMeans(points, Config{K: 2, Seed: 7})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	// Every pair with the same true label must land in the same cluster
	// (check via purity >= 99%).
	match := 0
	for i := range points {
		if (res.Assignment[i] == res.Assignment[0]) == (labels[i] == labels[0]) {
			match++
		}
	}
	purity := float64(match) / float64(len(points))
	if purity < 0.99 {
		t.Errorf("purity = %v, want >= 0.99", purity)
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, Config{K: 2}); err == nil {
		t.Error("no data should error")
	}
	pts := []Point{{1, 2}, {3, 4}}
	if _, err := KMeans(pts, Config{K: 0}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KMeans(pts, Config{K: 5}); err == nil {
		t.Error("k > n should error")
	}
	bad := []Point{{1, 2}, {3}}
	if _, err := KMeans(bad, Config{K: 1}); err == nil {
		t.Error("ragged dimensions should error")
	}
}

func TestKMeansK1GivesCentroidMean(t *testing.T) {
	pts := []Point{{0, 0}, {2, 2}, {4, 4}}
	res, err := KMeans(pts, Config{K: 1, Seed: 3})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	c := res.Centroids[0]
	if math.Abs(c[0]-2) > 1e-9 || math.Abs(c[1]-2) > 1e-9 {
		t.Errorf("centroid = %v, want (2,2)", c)
	}
}

func TestKMeansDeterminism(t *testing.T) {
	points, _ := twoBlobs(50, 2)
	a, err := KMeans(points, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(points, Config{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Errorf("inertia differs across identical seeds: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("assignment differs across identical seeds")
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{5, 5}
	}
	res, err := KMeans(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatalf("KMeans on identical points: %v", err)
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %v, want 0", res.Inertia)
	}
}

func TestSilhouetteSeparatedVsMixed(t *testing.T) {
	points, labels := twoBlobs(60, 3)
	good, err := Silhouette(points, labels, 2)
	if err != nil {
		t.Fatalf("Silhouette: %v", err)
	}
	if good < 0.6 {
		t.Errorf("well-separated silhouette = %v, want >= 0.6", good)
	}
	// Random assignment should score much worse.
	rng := rand.New(rand.NewSource(5))
	randomAssign := make([]int, len(points))
	for i := range randomAssign {
		randomAssign[i] = rng.Intn(2)
	}
	bad, err := Silhouette(points, randomAssign, 2)
	if err != nil {
		t.Fatalf("Silhouette: %v", err)
	}
	if bad >= good {
		t.Errorf("random assignment silhouette %v should be < true %v", bad, good)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	pts := []Point{{1}, {2}}
	if _, err := Silhouette(pts, []int{0}, 2); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Silhouette(nil, nil, 2); err == nil {
		t.Error("empty should error")
	}
	if _, err := Silhouette(pts, []int{0, 1}, 1); err == nil {
		t.Error("k < 2 should error")
	}
	if _, err := Silhouette(pts, []int{0, 5}, 2); err == nil {
		t.Error("out-of-range assignment should error")
	}
}

func TestSelectKFindsTwoClusters(t *testing.T) {
	points, _ := twoBlobs(80, 4)
	res, err := SelectK(points, 5, 0.25, 9)
	if err != nil {
		t.Fatalf("SelectK: %v", err)
	}
	if res.K != 2 {
		t.Errorf("SelectK chose k=%d, want 2", res.K)
	}
}

func TestSelectKSingleBlobStaysOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := make([]Point, 150)
	for i := range points {
		points[i] = Point{10 + rng.NormFloat64(), 20 + rng.NormFloat64()}
	}
	res, err := SelectK(points, 5, 0.5, 10)
	if err != nil {
		t.Fatalf("SelectK: %v", err)
	}
	if res.K != 1 {
		t.Errorf("SelectK chose k=%d for a single blob, want 1", res.K)
	}
}

func TestSelectKErrors(t *testing.T) {
	if _, err := SelectK(nil, 3, 0.2, 1); err == nil {
		t.Error("empty should error")
	}
	if _, err := SelectK([]Point{{1}}, 0, 0.2, 1); err == nil {
		t.Error("maxK < 1 should error")
	}
}

// Property: inertia never increases when k grows (best-of-restarts).
func TestInertiaMonotoneInK(t *testing.T) {
	points, _ := twoBlobs(40, 8)
	prev := math.Inf(1)
	for k := 1; k <= 4; k++ {
		res, err := KMeans(points, Config{K: k, Seed: 20, Restarts: 8})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Inertia > prev+1e-6 {
			t.Errorf("inertia increased from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}
