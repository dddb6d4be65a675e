package main

import (
	"math"
	"sort"
)

// tailQuantile is the highest quantile the benchmark reports for a timing.
const tailQuantile = 0.95

// minBeyond is how many samples must lie beyond a reported tail quantile;
// with fewer, the "tail" is a handful of outliers and does not repeat.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples that lie strictly past the nearest-rank
// q-quantile position of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tail returns the nearest-rank p95 of sorted and whether it may be
// reported: only when at least minBeyond samples lie beyond it.
func tail(sorted []float64) (float64, bool) {
	if beyond(len(sorted), tailQuantile) < minBeyond {
		return 0, false
	}
	return quantile(sorted, tailQuantile), true
}

// sortedCopy returns a sorted copy of vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of vs (mean of the two middles for even n).
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, median and Q3 of vs computed like Python's
// statistics.quantiles(vs, n=4) with its default exclusive method, so the
// steadiness command reads the same spread the acceptance rule does.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	// Python's algorithm, step for step: m = n+1, j = i*m // 4 clamped to
	// [1, n-1], delta = i*m - j*4, weight the neighbours by delta/4.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
