package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
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

// seriesLine formats samples in the order they were taken.
func seriesLine(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. A fixed ladder keeps the reported percentile the same
// across runs whose sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const tailBeyond = 10

// tailPercentile picks the highest ladder percentile that leaves at least
// tailBeyond of n samples strictly above its nearest-rank position. ok is
// false when n is too small for any ladder entry.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	// The small offset keeps float error (99.9% of 10000 is not exactly
	// 9990 in binary) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-6))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1]
}

// tail reports the tail latency of xs at tailPercentile(len(xs)). With
// too few samples for any ladder entry it returns the maximum and pct 100,
// which the caller prints so the reader knows no ten samples lie beyond.
func tail(xs []float64) (value, pct float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return percentile(xs, 100), 100
	}
	return percentile(xs, p), p
}
