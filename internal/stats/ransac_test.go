package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRANSACRejectsOutliers(t *testing.T) {
	// Quadratic latency-vs-servers truth, like the paper's eq. (1), with a
	// block of contaminated points simulating a deployment window.
	truth := Polynomial{Coeffs: []float64{40, -0.2, 0.002}}
	rng := rand.New(rand.NewSource(21))
	var xs, ys []float64
	for n := 20.0; n <= 120; n += 0.5 {
		xs = append(xs, n)
		ys = append(ys, truth.Predict(n)+0.2*rng.NormFloat64())
	}
	// 15% outliers: latency spikes from an unrelated deployment.
	outliers := len(xs) * 15 / 100
	for i := 0; i < outliers; i++ {
		j := rng.Intn(len(xs))
		ys[j] += 30 + 10*rng.Float64()
	}

	res, err := RANSAC(xs, ys, RANSACConfig{Degree: 2, Seed: 1, MaxIterations: 300})
	if err != nil {
		t.Fatalf("RANSAC: %v", err)
	}
	// The robust fit should recover the truth much better than plain OLS.
	ols, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatalf("PolyFit: %v", err)
	}
	at80Truth := truth.Predict(80)
	robustErr := math.Abs(res.Model.Predict(80) - at80Truth)
	olsErr := math.Abs(ols.Predict(80) - at80Truth)
	if robustErr > 1 {
		t.Errorf("robust prediction error %v too large", robustErr)
	}
	if robustErr >= olsErr {
		t.Errorf("robust error %v should beat OLS error %v", robustErr, olsErr)
	}
	if res.InlierFrac < 0.7 {
		t.Errorf("inlier fraction %v too small", res.InlierFrac)
	}
}

func TestRANSACCleanDataMatchesOLS(t *testing.T) {
	truth := Polynomial{Coeffs: []float64{5, 1.5}}
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, truth.Predict(float64(i)))
	}
	res, err := RANSAC(xs, ys, RANSACConfig{Degree: 1, Seed: 2})
	if err != nil {
		t.Fatalf("RANSAC: %v", err)
	}
	if !almostEqual(res.Model.Coeffs[1], 1.5, 1e-6) || !almostEqual(res.Model.Coeffs[0], 5, 1e-6) {
		t.Errorf("model = %v, want clean line", res.Model.Coeffs)
	}
	if res.InlierFrac != 1 {
		t.Errorf("inlier frac = %v, want 1 on clean data", res.InlierFrac)
	}
}

func TestRANSACErrors(t *testing.T) {
	if _, err := RANSAC([]float64{1, 2}, []float64{1}, RANSACConfig{Degree: 1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := RANSAC([]float64{1, 2, 3}, []float64{1, 2, 3}, RANSACConfig{Degree: 2}); err == nil {
		t.Error("too few points should error")
	}
	// Majority outliers: consensus below minInlierFrac must fail.
	rng := rand.New(rand.NewSource(4))
	var xs, ys []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, rng.Float64()*1000) // pure noise
	}
	if _, err := RANSAC(xs, ys, RANSACConfig{
		Degree: 1, Seed: 3, InlierThreshold: 0.1,
	}); err == nil {
		t.Error("pure-noise data should fail the consensus check")
	}
}

func TestRANSACDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var xs, ys []float64
	for i := 0; i < 60; i++ {
		xs = append(xs, float64(i))
		ys = append(ys, 2*float64(i)+rng.NormFloat64())
	}
	a, err := RANSAC(xs, ys, RANSACConfig{Degree: 1, Seed: 42})
	if err != nil {
		t.Fatalf("RANSAC: %v", err)
	}
	b, err := RANSAC(xs, ys, RANSACConfig{Degree: 1, Seed: 42})
	if err != nil {
		t.Fatalf("RANSAC: %v", err)
	}
	if a.Model.Coeffs[0] != b.Model.Coeffs[0] || a.Model.Coeffs[1] != b.Model.Coeffs[1] {
		t.Error("same seed should give identical fits")
	}
	if len(a.Inliers) != len(b.Inliers) {
		t.Error("same seed should give identical inlier sets")
	}
}
