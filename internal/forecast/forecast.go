// Package forecast predicts future workload volume from history. The
// paper's capacity planners combine the QoS requirement "with workload
// trends, expected failure rates, and QoS business requirements to determine
// how many servers are needed" (§II); this package supplies the workload-
// trend component: a linear growth trend plus a daily seasonal profile, the
// structure diurnal online-service traffic actually has.
package forecast

import (
	"errors"
	"fmt"
	"math"

	"headroom/internal/stats"
)

// Model is a fitted trend + daily-seasonality workload model:
//
//	load(t) ≈ (Trend.Intercept + Trend.Slope·t) · Seasonal[t mod ticksPerDay]
//
// with Seasonal normalised to mean 1.
type Model struct {
	Trend       stats.LinearFit
	Seasonal    []float64
	TicksPerDay int
	// ResidualStd is the standard deviation of multiplicative residuals,
	// used for headroom margins.
	ResidualStd float64
}

// Check reports whether Fit accepts series sampled ticksPerDay times a day:
// two full days or more, every sample in [0, sqrt(MaxFloat64/len(series))].
// The bound keeps the fit finite: its largest sum, the trend regression's sum
// of squared deviations, holds at most one squared sample per tick.
func Check(series []float64, ticksPerDay int) error {
	if ticksPerDay <= 0 {
		return fmt.Errorf("forecast: non-positive ticksPerDay %d", ticksPerDay)
	}
	if len(series)/2 < ticksPerDay { // not 2*ticksPerDay, which can overflow
		return fmt.Errorf("forecast: need >= 2 days of data (2 x %d ticks), got %d", ticksPerDay, len(series))
	}
	maxLoad := math.Sqrt(math.MaxFloat64 / float64(len(series)))
	for i, v := range series {
		if !(v >= 0) {
			return fmt.Errorf("forecast: load %v at tick %d is not >= 0", v, i)
		}
		if v > maxLoad {
			return fmt.Errorf("forecast: load %v at tick %d is over %.6g, sqrt(MaxFloat64/%d): %d squared loads must sum to a finite float64",
				v, i, maxLoad, len(series), len(series))
		}
	}
	return nil
}

// Fit estimates the model from an offered-load series sampled once per
// tick; the series must pass Check.
func Fit(series []float64, ticksPerDay int) (Model, error) {
	if err := Check(series, ticksPerDay); err != nil {
		return Model{}, err
	}

	// Trend on daily means (removes the seasonal component exactly when
	// days are complete).
	days := len(series) / ticksPerDay
	dayIdx := make([]float64, days)
	dayMean := make([]float64, days)
	for d := 0; d < days; d++ {
		seg := series[d*ticksPerDay : (d+1)*ticksPerDay]
		dayIdx[d] = float64(d*ticksPerDay) + float64(ticksPerDay-1)/2
		dayMean[d] = stats.Mean(seg)
	}
	var trend stats.LinearFit
	if days >= 2 {
		fit, err := stats.LinearRegression(dayIdx, dayMean)
		if err != nil {
			return Model{}, fmt.Errorf("forecast: trend: %w", err)
		}
		trend = fit
	} else {
		trend = stats.LinearFit{Intercept: dayMean[0]}
	}

	// Seasonal profile: mean detrended ratio per tick-of-day.
	seasonal := make([]float64, ticksPerDay)
	counts := make([]int, ticksPerDay)
	for t := 0; t < days*ticksPerDay; t++ {
		base := trend.Predict(float64(t))
		if base <= 0 {
			continue
		}
		tod := t % ticksPerDay
		seasonal[tod] += series[t] / base
		counts[tod]++
	}
	var mean float64
	for i := range seasonal {
		if counts[i] > 0 {
			seasonal[i] /= float64(counts[i])
		} else {
			seasonal[i] = 1
		}
		mean += seasonal[i]
	}
	mean /= float64(ticksPerDay)
	if mean <= 0 {
		return Model{}, errors.New("forecast: degenerate seasonal profile")
	}
	for i := range seasonal {
		seasonal[i] /= mean
	}

	m := Model{Trend: trend, Seasonal: seasonal, TicksPerDay: ticksPerDay}

	// Residual spread of the multiplicative errors.
	var resid []float64
	for t := 0; t < days*ticksPerDay; t++ {
		pred := m.Predict(t)
		if pred > 0 {
			resid = append(resid, series[t]/pred-1)
		}
	}
	if len(resid) > 1 {
		m.ResidualStd = stats.StdDev(resid)
	}
	return m, nil
}

// Predict returns the expected load at a (possibly future) tick.
func (m Model) Predict(tick int) float64 {
	base := m.Trend.Predict(float64(tick))
	if base < 0 {
		base = 0
	}
	if m.TicksPerDay == 0 || len(m.Seasonal) == 0 {
		return base
	}
	tod := tick % m.TicksPerDay
	if tod < 0 {
		tod += m.TicksPerDay
	}
	return base * m.Seasonal[tod]
}

// peakMarginSigmas is the safety margin PeakOverHorizon adds to the
// predicted peak, in residual standard deviations.
const peakMarginSigmas = 2

// PeakOverHorizon returns the maximum predicted load over [from, from+n)
// plus a safety margin of peakMarginSigmas residual standard deviations —
// the number a capacity planner provisions against.
func (m Model) PeakOverHorizon(from, n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("forecast: non-positive horizon %d", n)
	}
	var peak float64
	for t := from; t < from+n; t++ {
		if v := m.Predict(t); v > peak {
			peak = v
		}
	}
	return peak * (1 + peakMarginSigmas*m.ResidualStd), nil
}

// GrowthPerDay returns the fitted daily growth in absolute load units.
func (m Model) GrowthPerDay() float64 {
	return m.Trend.Slope * float64(m.TicksPerDay)
}
