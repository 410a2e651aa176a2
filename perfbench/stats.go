package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSupported reports whether n samples support the q-quantile: at
// least minTail of them lie beyond it.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// percentile is quantile guarded by the sample-count rule: ok is false
// when xs holds too few samples for q.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if q > 0.5 && !tailSupported(len(xs), q) {
		return math.NaN(), false
	}
	if len(xs) == 0 {
		return math.NaN(), false
	}
	return quantile(xs, q), true
}
