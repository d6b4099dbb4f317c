package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. An empty slice yields 0. (The
// program's internal/stats has the same interpolation; the benchmark keeps
// its own so that no change to the program can move how it is measured.)
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// tailLadder lists the percentiles a timing may be reported at, lowest
// first, each with the k of "one sample in k lies beyond it".
var tailLadder = []struct {
	pct     float64
	oneInto int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// tailPercentile returns the highest percentile of tailLadder that still
// leaves at least ten of n samples beyond it — the highest one a sample of
// that size supports. With fewer than forty samples only the median is.
func tailPercentile(n int) float64 {
	best := tailLadder[0].pct
	for _, t := range tailLadder {
		if n/t.oneInto >= 10 {
			best = t.pct
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of values
// exactly as Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), so spreads computed here match the acceptance rule's.
// Fewer than two values yield that value (or 0) three times.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run steadiness measure bounds are calibrated against.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// timing summarises one timed quantity: its sample count, quartiles, p90 and the
// highest percentile the sample count supports.
type timing struct {
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	P50     float64 `json:"p50"`
	Q3      float64 `json:"q3"`
	P90     float64 `json:"p90"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(samples []float64) timing {
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	tp := tailPercentile(len(x))
	return timing{
		N:       len(x),
		Q1:      percentile(x, 25),
		P50:     percentile(x, 50),
		Q3:      percentile(x, 75),
		P90:     percentile(x, 90),
		TailPct: tp,
		Tail:    percentile(x, tp),
	}
}

func median(samples []float64) float64 { return summarize(samples).P50 }
