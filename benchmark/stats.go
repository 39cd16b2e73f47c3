package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile is the nearest-rank percentile of sorted xs, p in (0,1).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// supported reports whether n samples leave at least minBeyond beyond p.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowed is the benchmark's latency statistic: the median over the
// windows of each window's percentile, so that a burst of interference in
// one or two windows does not decide the run. n is the sample count of the
// smallest window; the value is reported (ok) only if that window supports
// the percentile. Windows are sorted in place.
func windowed(windows [][]float64, p float64) (v float64, n int, ok bool) {
	if len(windows) == 0 {
		return 0, 0, false
	}
	n = math.MaxInt
	per := make([]float64, len(windows))
	for i, w := range windows {
		sort.Float64s(w)
		n = min(n, len(w))
		per[i] = percentile(w, p)
	}
	if !supported(n, p) {
		return 0, n, false
	}
	return median(per), n, true
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
