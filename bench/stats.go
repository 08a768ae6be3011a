package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles the ledger reports, highest
// first. topPercentile walks it.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// topPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it in a set of n. With fewer than
// twenty samples not even the median qualifies: ok is false and the
// caller reports the median together with min and max instead.
func topPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100·(1−0.9) is 9.999… in floating point
			return p, true
		}
	}
	return 50, false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; NaN for
// an empty set.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile with the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so a spread
// computed here matches the one the acceptance protocol computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// statistics.quantiles: j = k(n+1)/4 clamped to 1..n-1, and the
		// interpolation weight taken after the clamp (so tiny sets
		// extrapolate exactly as Python does).
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadFrac is the inter-quartile distance as a share of the median.
func spreadFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / m)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
