package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it; with fewer, the percentile reads one or two outliers.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile picks the highest percentile of tailLadder, no higher
// than limit, that has at least minBeyond of n samples beyond it.  A
// sample too small for even the median reports its maximum (1).
func tailQuantile(n int, limit float64) float64 {
	for _, q := range tailLadder {
		if q <= limit && n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 1
}

// rank is the 1-based nearest rank of the q-quantile of n samples,
// ceil(q·n), computed so that 0.9·100 is 90 and not 91.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortDurations sorts in place and returns its argument.
func sortDurations(v []time.Duration) []time.Duration {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// median of a few float64 readings (setup times); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
