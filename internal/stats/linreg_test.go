package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestLinearRegressionExact(t *testing.T) {
	tests := []struct {
		name            string
		slope, icpt     float64
		xs              []float64
		wantR2AtLeast   float64
		noiseAmplitude  float64
		wantSlopeWithin float64
	}{
		{"perfect line", 2.5, -3, seq(0, 20), 1, 0, 1e-9},
		{"paper pool B cpu", 0.028, 1.37, seq(100, 700), 0.99, 0, 1e-9},
		{"noisy line", 0.0916, 5.006, seq(10, 200), 0.9, 0.5, 0.01},
	}
	rng := rand.New(rand.NewSource(3))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ys := make([]float64, len(tt.xs))
			for i, x := range tt.xs {
				ys[i] = tt.slope*x + tt.icpt + tt.noiseAmplitude*rng.NormFloat64()
			}
			fit, err := LinearRegression(tt.xs, ys)
			if err != nil {
				t.Fatalf("LinearRegression: %v", err)
			}
			if math.Abs(fit.Slope-tt.slope) > tt.wantSlopeWithin {
				t.Errorf("slope = %v, want %v +/- %v", fit.Slope, tt.slope, tt.wantSlopeWithin)
			}
			if fit.R2 < tt.wantR2AtLeast {
				t.Errorf("R2 = %v, want >= %v", fit.R2, tt.wantR2AtLeast)
			}
			if fit.N != len(tt.xs) {
				t.Errorf("N = %d, want %d", fit.N, len(tt.xs))
			}
		})
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := LinearRegression([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance should error")
	}
}

func TestLinearFitPredictAndString(t *testing.T) {
	f := LinearFit{Slope: 2, Intercept: 1, R2: 0.5, N: 10}
	if got := f.Predict(3); got != 7 {
		t.Errorf("Predict(3) = %v, want 7", got)
	}
	if s := f.String(); !strings.Contains(s, "R2 = 0.500") {
		t.Errorf("String() = %q, missing R2", s)
	}
}

func TestPolyFitRecoversKnownPolynomials(t *testing.T) {
	tests := []struct {
		name   string
		coeffs []float64 // c0, c1, c2...
	}{
		{"constant", []float64{4}},
		{"line", []float64{1.5, -2}},
		{"paper pool B latency", []float64{36.68, -0.031, 4.028e-5}},
		{"paper pool D latency", []float64{86.50, -0.80, 4.66e-3}},
		{"cubic", []float64{1, -1, 0.5, 0.02}},
	}
	xs := seq(1, 120)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			truth := Polynomial{Coeffs: tt.coeffs}
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = truth.Predict(x)
			}
			fit, err := PolyFit(xs, ys, len(tt.coeffs)-1)
			if err != nil {
				t.Fatalf("PolyFit: %v", err)
			}
			for i, c := range tt.coeffs {
				tol := 1e-6 * math.Max(1, math.Abs(c))
				if math.Abs(fit.Coeffs[i]-c) > tol {
					t.Errorf("coeff[%d] = %v, want %v", i, fit.Coeffs[i], c)
				}
			}
			if fit.R2 < 1-1e-9 {
				t.Errorf("R2 = %v, want ~1", fit.R2)
			}
		})
	}
}

func TestPolyFitDegreeMismatch(t *testing.T) {
	xs := seq(0, 50)
	// Quadratic data fit with a line should have lower R2 than with a
	// quadratic.
	truth := Polynomial{Coeffs: []float64{5, 0.1, 0.4}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = truth.Predict(x)
	}
	lin, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatalf("linear: %v", err)
	}
	quad, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatalf("quadratic: %v", err)
	}
	if lin.R2 >= quad.R2 {
		t.Errorf("linear R2 %v should be < quadratic R2 %v", lin.R2, quad.R2)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("too few points should error")
	}
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("zero x-variance for degree>=1 should error")
	}
	// Degree 0 with constant x is fine: fits the mean.
	p, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatalf("degree 0: %v", err)
	}
	if !almostEqual(p.Coeffs[0], 2, 1e-12) {
		t.Errorf("degree-0 fit = %v, want mean 2", p.Coeffs[0])
	}
}

func TestPolynomialDegreeAndString(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, 2, 3}}
	var zero Polynomial
	if zero.String() != "y = 0" {
		t.Errorf("zero polynomial String = %q", zero.String())
	}
	if s := p.String(); !strings.HasPrefix(s, "y = 3*x^2") {
		t.Errorf("String = %q", s)
	}
}

// Property: the OLS line passes through (mean x, mean y).
func TestOLSCentroidProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		fit, err := LinearRegression(xs, ys)
		if err != nil {
			continue // duplicated xs can legitimately fail
		}
		if !almostEqual(fit.Predict(Mean(xs)), Mean(ys), 1e-6) {
			t.Fatalf("line does not pass through centroid: %v vs %v",
				fit.Predict(Mean(xs)), Mean(ys))
		}
	}
}

// Property: PolyFit residual SS never exceeds that of a lower degree fit on
// the same data (higher-degree models can only fit at least as well).
func TestPolyFitMonotoneR2Property(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 12 + rng.Intn(80)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64()
			ys[i] = 3 + 0.5*xs[i] + 0.01*xs[i]*xs[i] + rng.NormFloat64()
		}
		lin, err1 := PolyFit(xs, ys, 1)
		quad, err2 := PolyFit(xs, ys, 2)
		if err1 != nil || err2 != nil {
			t.Fatalf("fits failed: %v %v", err1, err2)
		}
		if quad.R2 < lin.R2-1e-9 {
			t.Fatalf("quadratic R2 %v < linear R2 %v", quad.R2, lin.R2)
		}
	}
}
