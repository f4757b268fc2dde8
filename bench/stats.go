package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an even
// count) and 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sorted(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least q of the samples at or below it.
func percentile(ascending []float64, q float64) float64 {
	n := len(ascending)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return ascending[rank-1]
}

// percentileLadder are the tail percentiles the benchmark will name.
var percentileLadder = [...]float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedPercentile is the highest rung with at least ten samples beyond
// it; below twenty samples only the median is supported.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, q := range percentileLadder {
		// The epsilon keeps 0.9*100 from rounding up to rank 91.
		if rank := math.Ceil(q*float64(n) - 1e-9); float64(n)-rank >= 10 {
			best = q
		}
	}
	return best
}

// quartiles matches Python's statistics.quantiles(values, n=4), the exclusive
// method the driver uses: the i-th cut sits at position i*(n+1)/4, linearly
// interpolated and clamped to the ends.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func minMax(values []float64) (lo, hi float64) {
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
