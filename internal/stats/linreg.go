package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of a simple ordinary-least-squares regression
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 {
	return f.Slope*x + f.Intercept
}

// String renders the fit the way the paper reports them, e.g.
// "y = 0.028*x + 1.37  R2 = 0.984  N = 1221".
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.4g*x + %.4g  R2 = %.3f  N = %d", f.Slope, f.Intercept, f.R2, f.N)
}

// LinearRegression fits y = slope*x + intercept by ordinary least squares.
// It requires at least two points with non-zero variance in x.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("linear regression: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("linear regression: need >= 2 points, got %d: %w", len(xs), ErrEmptyInput)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("linear regression: zero variance in x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	fit := LinearFit{Slope: slope, Intercept: intercept, N: len(xs)}
	// RSquared(ys, predictions) without materialising the predictions.
	var ssRes, ssTot float64
	for i, x := range xs {
		r := ys[i] - fit.Predict(x)
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	fit.R2 = rSquared(ssRes, ssTot)
	return fit, nil
}

// Polynomial is a polynomial in one variable. Coeffs[i] is the coefficient
// of x^i, so Coeffs = [c0, c1, c2] represents c2*x^2 + c1*x + c0.
type Polynomial struct {
	Coeffs []float64
	R2     float64
	N      int
}

// Predict evaluates the polynomial at x using Horner's method.
func (p Polynomial) Predict(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// String renders a quadratic the way the paper prints them, e.g.
// "y = 4.028e-05*x^2 + -0.031*x + 36.68".
func (p Polynomial) String() string {
	if len(p.Coeffs) == 0 {
		return "y = 0"
	}
	s := "y = "
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		switch i {
		case 0:
			s += fmt.Sprintf("%.4g", p.Coeffs[i])
		case 1:
			s += fmt.Sprintf("%.4g*x + ", p.Coeffs[i])
		default:
			s += fmt.Sprintf("%.4g*x^%d + ", p.Coeffs[i], i)
		}
	}
	return s
}

// PolyFit fits a polynomial of the given degree to (xs, ys) by least squares
// using the normal equations solved with Gaussian elimination and partial
// pivoting. Degrees used by the methodology are small (1..3) so the normal
// equations are numerically adequate; inputs are centred and scaled
// internally to keep the system well conditioned.
func PolyFit(xs, ys []float64, degree int) (Polynomial, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, fmt.Errorf("polyfit: %w (%d vs %d)", ErrBadLength, len(xs), len(ys))
	}
	if degree < 0 {
		return Polynomial{}, fmt.Errorf("polyfit: negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return Polynomial{}, fmt.Errorf("polyfit: need >= %d points for degree %d, got %d", degree+1, degree, len(xs))
	}

	// Centre and scale x to improve conditioning of the Vandermonde system.
	mx := Mean(xs)
	sx := StdDev(xs)
	if sx == 0 || math.IsNaN(sx) {
		if degree == 0 {
			return Polynomial{Coeffs: []float64{Mean(ys)}, R2: 0, N: len(xs)}, nil
		}
		return Polynomial{}, fmt.Errorf("polyfit: zero variance in x for degree %d", degree)
	}
	zs := make([]float64, len(xs))
	for i, x := range xs {
		zs[i] = (x - mx) / sx
	}

	m := degree + 1
	// Build normal equations A c = b where A[j][k] = sum z^(j+k),
	// b[j] = sum y z^j.
	a := make([][]float64, m)
	for j := range a {
		a[j] = make([]float64, m+1)
	}
	pows := make([]float64, 2*degree+1)
	for _, z := range zs {
		zp := 1.0
		for k := 0; k <= 2*degree; k++ {
			pows[k] += zp
			zp *= z
		}
	}
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			a[j][k] = pows[j+k]
		}
	}
	for i, z := range zs {
		zp := 1.0
		for j := 0; j < m; j++ {
			a[j][m] += ys[i] * zp
			zp *= z
		}
	}

	coeffsZ, err := solveGaussian(a)
	if err != nil {
		return Polynomial{}, fmt.Errorf("polyfit: %w", err)
	}

	// Convert coefficients in z = (x-mx)/sx back to coefficients in x by
	// expanding sum_j cz[j] * ((x-mx)/sx)^j.
	coeffs := make([]float64, m)
	// binomial expansion: ((x-mx)/sx)^j = sum_k C(j,k) x^k (-mx)^(j-k) / sx^j
	for j := 0; j < m; j++ {
		cj := coeffsZ[j] / math.Pow(sx, float64(j))
		binom := 1.0
		for k := 0; k <= j; k++ {
			coeffs[k] += cj * binom * math.Pow(-mx, float64(j-k))
			binom = binom * float64(j-k) / float64(k+1)
		}
	}

	p := Polynomial{Coeffs: coeffs, N: len(xs)}
	preds := make([]float64, len(xs))
	for i, x := range xs {
		preds[i] = p.Predict(x)
	}
	r2, err := RSquared(ys, preds)
	if err != nil {
		return Polynomial{}, err
	}
	p.R2 = r2
	return p, nil
}

// solveGaussian solves the augmented system a (m rows, m+1 cols) in place
// using Gaussian elimination with partial pivoting and returns the solution
// vector of length m.
func solveGaussian(a [][]float64) ([]float64, error) {
	m := len(a)
	for col := 0; col < m; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate below.
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		s := a[r][m]
		for c := r + 1; c < m; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
