package forecast

import (
	"math"
	"math/rand"
	"testing"

	"headroom/internal/workload"
)

// grownDiurnal builds a load series with linear growth and a diurnal shape.
func grownDiurnal(days, ticksPerDay int, base, growthPerDay, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := workload.Pattern{BaseRPS: 1, PeakToTrough: 2.4, PeakHour: 13}
	out := make([]float64, days*ticksPerDay)
	for t := range out {
		level := base + growthPerDay*float64(t)/float64(ticksPerDay)
		shape := p.At(float64(t%ticksPerDay) / float64(ticksPerDay))
		out[t] = level * shape * (1 + noise*rng.NormFloat64())
	}
	return out
}

func TestFitRecoversTrendAndSeason(t *testing.T) {
	tpd := 720
	series := grownDiurnal(7, tpd, 100000, 2000, 0.02, 1)
	m, err := Fit(series, tpd)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if g := m.GrowthPerDay(); math.Abs(g-2000) > 300 {
		t.Errorf("growth/day = %v, want ~2000", g)
	}
	// Seasonal profile: peak near tick 13/24 of the day, normalised mean 1.
	var mean float64
	for _, s := range m.Seasonal {
		mean += s
	}
	mean /= float64(tpd)
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("seasonal mean = %v, want 1", mean)
	}
	peakTick := 0
	for i, s := range m.Seasonal {
		if s > m.Seasonal[peakTick] {
			peakTick = i
		}
	}
	wantPeak := 13 * tpd / 24
	if d := peakTick - wantPeak; d < -30 || d > 30 {
		t.Errorf("seasonal peak at tick %d, want ~%d", peakTick, wantPeak)
	}
	if m.ResidualStd > 0.05 {
		t.Errorf("residual std = %v, want small", m.ResidualStd)
	}
}

func TestPredictForward(t *testing.T) {
	tpd := 720
	series := grownDiurnal(7, tpd, 100000, 2000, 0.02, 2)
	m, err := Fit(series, tpd)
	if err != nil {
		t.Fatal(err)
	}
	// Generate day 8 and compare point predictions.
	truth := grownDiurnal(9, tpd, 100000, 2000, 0, 3) // noiseless extension
	var mape float64
	n := 0
	for tick := 7 * tpd; tick < 8*tpd; tick++ {
		pred := m.Predict(tick)
		actual := truth[tick]
		if actual > 0 {
			mape += math.Abs(pred-actual) / actual
			n++
		}
	}
	mape /= float64(n)
	if mape > 0.03 {
		t.Errorf("day-8 MAPE = %v, want <= 3%%", mape)
	}
}

func TestPeakOverHorizon(t *testing.T) {
	tpd := 720
	series := grownDiurnal(4, tpd, 50000, 1000, 0.02, 4)
	m, err := Fit(series, tpd)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for t := 4 * tpd; t < 5*tpd; t++ {
		peak = max(peak, m.Predict(t))
	}
	// Day-5 peak must exceed the day-5 mean level (diurnal amplitude) and
	// sit above the day-1 peak (growth).
	day5Level := 50000 + 1000*4.5
	if peak < day5Level {
		t.Errorf("horizon peak %v below day-5 mean level %v", peak, day5Level)
	}
	withMargin, err := m.PeakOverHorizon(4*tpd, tpd)
	if err != nil {
		t.Fatal(err)
	}
	if m.ResidualStd <= 0 || withMargin != peak*(1+2*m.ResidualStd) {
		t.Errorf("provisioning peak = %v, want the %v peak plus 2 residual sigmas (%v)", withMargin, peak, m.ResidualStd)
	}
	if _, err := m.PeakOverHorizon(0, 0); err == nil {
		t.Error("zero horizon should error")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 0); err == nil {
		t.Error("bad ticksPerDay should error")
	}
	if _, err := Fit(make([]float64, 100), 720); err == nil {
		t.Error("insufficient history should error")
	}
	if _, err := Fit([]float64{1, 2}, 1<<62); err == nil {
		t.Error("a day too long to double should error, not index an empty history")
	}
	neg := make([]float64, 1440)
	neg[3] = -1
	if _, err := Fit(neg, 720); err == nil {
		t.Error("negative load should error")
	}
}

// TestCheckKeepsFitFinite fits series whose samples are 0 or at Check's
// bound, whole days and single ticks apart, and requires every number of the
// model and of a year's peak projection to be finite; one sample past the
// bound fails Check, and Fit with it.
func TestCheckKeepsFitFinite(t *testing.T) {
	for _, shape := range []struct{ days, tpd int }{{2, 1}, {3, 2}, {7, 24}, {30, 48}} {
		n := shape.days * shape.tpd
		bound := math.Sqrt(math.MaxFloat64 / float64(n))
		series := make([]float64, n)
		for i := range series {
			if day := i / shape.tpd; day%2 == 0 || i%3 == 0 {
				series[i] = bound
			}
		}
		m, err := Fit(series, shape.tpd)
		if err != nil {
			t.Fatalf("%d days x %d: %v", shape.days, shape.tpd, err)
		}
		peak, err := m.PeakOverHorizon(n, 366*shape.tpd)
		if err != nil {
			t.Fatal(err)
		}
		nums := append([]float64{m.Trend.Slope, m.Trend.Intercept, m.Trend.R2, m.ResidualStd, peak}, m.Seasonal...)
		for i, v := range nums {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%d days x %d: number %d of the model is %v", shape.days, shape.tpd, i, v)
			}
		}
		series[n-1] = math.Nextafter(bound, math.Inf(1))
		if err := Check(series, shape.tpd); err == nil {
			t.Errorf("%d days x %d: a sample past the bound passed Check", shape.days, shape.tpd)
		}
	}
}

func TestPredictFlatModel(t *testing.T) {
	var m Model
	m.Trend.Intercept = 100
	if got := m.Predict(5); got != 100 {
		t.Errorf("flat model Predict = %v, want 100", got)
	}
	m.Trend.Slope = -1000
	if got := m.Predict(10); got != 0 {
		t.Errorf("negative base should clamp to 0, got %v", got)
	}
}
