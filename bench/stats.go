package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile before
// it is reported: a p90 of 20 samples is the second-largest value, which is
// noise, not a tail.
const minTail = 10

// median returns the median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether it may be reported: at least minTail samples must lie beyond
// its rank.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(n, rank))
	return sortedCopy(xs)[rank-1], n-rank >= minTail
}

// tailPercentile returns the highest of p90, p99 and p99.9 that percentile
// may report, with its value; ok is false when even p90 lacks the samples.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, q := range []float64{99.9, 99, 90} {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// geomean returns the geometric mean of xs, which must all be positive; 0
// for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// deriveSeed maps the run seed and a stream index to an independent design
// seed (splitmix64). The same pair always gives the same seed, and the
// result is non-negative so it reads naturally in logs and job specs.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// order returns the integers 0..n-1 in an order drawn from seed by a
// Fisher–Yates walk.
func order(n int, seed int64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(uint64(deriveSeed(seed, uint64(i))) % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}
