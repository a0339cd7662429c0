package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relIQR is the interquartile range as a share of the median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// tailSamples is how many samples must lie beyond a percentile for it
// to be reported.
const tailSamples = 10

// highPercentile returns the highest of p99, p95, p90 that has at least
// tailSamples samples beyond it, with the percentile chosen (0 when
// even p90 has too few, in which case the value is the median).
func highPercentile(xs []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90} {
		if beyond(len(xs), p) >= tailSamples {
			return quantile(xs, float64(p)/100), p
		}
	}
	return median(xs), 0
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n, p int) int { return n * (100 - p) / 100 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
