package stats

import (
	"math"
	"sort"
)

// Selector is the reusable working memory of exact order-statistic
// selection: every percentile in this package reads its ranks from one. The
// zero value is ready; it grows to the largest sample it has seen and holds
// no result between calls. A Selector is not safe for concurrent use.
type Selector struct {
	buf []float64 // the sample, rearranged by place
	cnt []int     // per-bucket counts, then bucket end offsets
}

// selectMaxBuckets bounds the counting memory for large samples; their
// buckets then hold n/selectMaxBuckets values each and are sorted.
const selectMaxBuckets = 1 << 12

// place returns the values of xs (len > 0) rearranged so that, for every
// rank i in the ascending idx, position i holds the i-th smallest value —
// exactly what sort.Float64s puts there (values that compare equal, ±0,
// are interchangeable) — with nothing larger before it and nothing smaller
// after it. xs is not modified; the result is valid until the next call.
//
// Values are dealt into equal-width buckets by int((x-min)*scale), which is
// monotone in x, so bucket order is value order and only the buckets that
// hold a requested rank are sorted. Whatever bucketing cannot order (NaN,
// an infinite or zero value range) is sorted outright, as is a bucket an
// outlier collapsed the sample into: the worst case is one sort.Float64s.
func (s *Selector) place(xs []float64, idx []int) []float64 {
	n := len(xs)
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	buf := s.buf[:n]
	lo, hi, ordered := xs[0], xs[0], true
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		if x != x {
			ordered = false
		}
	}
	nb := min(n, selectMaxBuckets)
	scale := float64(nb-1) / (hi - lo)
	if !ordered || !(scale > 0 && scale <= math.MaxFloat64) {
		copy(buf, xs)
		sort.Float64s(buf)
		return buf
	}
	if cap(s.cnt) < nb {
		s.cnt = make([]int, nb)
	}
	cnt := s.cnt[:nb]
	clear(cnt)
	for _, x := range xs {
		cnt[int((x-lo)*scale)]++
	}
	end := 0
	for b, c := range cnt {
		cnt[b] = end
		end += c
	}
	for _, x := range xs {
		b := int((x - lo) * scale)
		buf[cnt[b]] = x
		cnt[b]++
	}
	// cnt[b] is now the end offset of bucket b, so bucket b is
	// buf[cnt[b-1]:cnt[b]].
	b, sorted := 0, -1
	for _, i := range idx {
		for cnt[b] <= i {
			b++
		}
		if b == sorted {
			continue
		}
		sorted = b
		start := 0
		if b > 0 {
			start = cnt[b-1]
		}
		if cnt[b]-start > 1 {
			sort.Float64s(buf[start:cnt[b]])
		}
	}
	return buf
}

// percentiles writes the ps-th percentiles of xs (len > 0) to out, NaN for
// a p outside [0, 100].
func (s *Selector) percentiles(out, xs, ps []float64) {
	idx := make([]int, 0, 16) // on the stack up to eight ranks
	for _, p := range ps {
		if p >= 0 && p <= 100 {
			rank := p / 100 * float64(len(xs)-1)
			idx = append(idx, int(math.Floor(rank)), int(math.Ceil(rank)))
		}
	}
	if !sort.IntsAreSorted(idx) {
		sort.Ints(idx)
	}
	sorted := s.place(xs, idx)
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
}

// Summarize is stats.Summarize on s's memory: it allocates nothing once s
// has grown to len(xs).
func (s *Selector) Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, StdDev: nan, Min: nan, Max: nan, P5: nan, P25: nan, P50: nan, P75: nan, P95: nan}
	}
	// Two passes in the order Mean, Min, Max and Variance take one each, so
	// every moment is the float64 those functions return.
	var sum float64
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean := sum / float64(len(xs))
	variance := math.NaN()
	if len(xs) >= 2 {
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		variance = ss / float64(len(xs)-1)
	}
	var ps [5]float64
	s.percentiles(ps[:], xs, []float64{5, 25, 50, 75, 95})
	return Summary{
		N: len(xs), Mean: mean, StdDev: math.Sqrt(variance), Min: lo, Max: hi,
		P5: ps[0], P25: ps[1], P50: ps[2], P75: ps[3], P95: ps[4],
	}
}
