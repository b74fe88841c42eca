package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported
// percentile for it to be trusted (choosing-metrics guide, section 1).
const tailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, and whether at least tailSamples samples lie
// strictly beyond the returned rank. It does not modify xs.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= tailSamples
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread returns (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the acceptance rule of this repository's benchmark contract
// uses. It needs at least two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quant := func(i int) float64 { // i-th of the 3 cut points
		num := i * (n + 1)
		j, frac := num/4, float64(num%4)/4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1]*(1-frac) + s[j]*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quant(3) - quant(1)) / med)
}
