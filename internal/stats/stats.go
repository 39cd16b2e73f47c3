// Package stats implements the measurement toolkit used by every experiment:
// percentile summaries, windowed load time series, moving medians, and
// confidence intervals. All of it is stdlib-only and allocation-conscious;
// latency samples for a full experiment run (millions of points) are held as
// flat float64 slices.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and answers distribution queries.
// It keeps every observation (experiments need exact high percentiles),
// plus Welford running moments for O(1) mean/variance.
type Sample struct {
	xs     []float64
	sorted bool

	n            int
	mean, m2     float64
	minV, maxV   float64
	haveExtremes bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if !s.haveExtremes {
		s.minV, s.maxV = x, x
		s.haveExtremes = true
	} else {
		if x < s.minV {
			s.minV = x
		}
		if x > s.maxV {
			s.maxV = x
		}
	}
}

// Count reports the number of observations.
func (s *Sample) Count() int { return s.n }

// Mean reports the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 { return s.mean }

// Variance reports the unbiased sample variance, or 0 if fewer than 2 points.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev reports the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min reports the smallest observation, or 0 if empty.
func (s *Sample) Min() float64 { return s.minV }

// Max reports the largest observation, or 0 if empty.
func (s *Sample) Max() float64 { return s.maxV }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample and
// clamps p to [0,100].
func (s *Sample) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.sort()
	return percentileSorted(s.xs, p)
}

// percentileSorted computes the percentile of an ascending slice.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Summary is a fixed set of distribution statistics, matching the metrics the
// paper reports (mean, median, 95th, 99th, 99.9th).
type Summary struct {
	Count                        int
	Mean, P50, P95, P99, P999    float64
	Min, Max, Stddev             float64
	TailToMedian, P999MinusP50   float64 // the paper's headline shape metrics
	P99MinusP50, MeanErrHalf95CI float64
}

// Summarize computes a Summary of the sample.
func (s *Sample) Summarize() Summary {
	sum := Summary{
		Count:  s.n,
		Mean:   s.Mean(),
		P50:    s.Percentile(50),
		P95:    s.Percentile(95),
		P99:    s.Percentile(99),
		P999:   s.Percentile(99.9),
		Min:    s.Min(),
		Max:    s.Max(),
		Stddev: s.Stddev(),
	}
	if sum.P50 > 0 {
		sum.TailToMedian = sum.P999 / sum.P50
	}
	sum.P999MinusP50 = sum.P999 - sum.P50
	sum.P99MinusP50 = sum.P99 - sum.P50
	if s.n > 0 {
		sum.MeanErrHalf95CI = 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
	}
	return sum
}

// String renders the summary compactly (values interpreted as milliseconds).
func (u Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f p99.9=%.2f max=%.2f",
		u.Count, u.Mean, u.P50, u.P95, u.P99, u.P999, u.Max)
}

// MeanCI95 reports the 95% confidence half-interval of the mean across a set
// of per-run values (normal approximation), as used for the paper's bar-plot
// error bars. It returns mean and half-width.
func MeanCI95(runs []float64) (mean, half float64) {
	n := len(runs)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range runs {
		sum += v
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range runs {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n))
}

// Windowed counts events into consecutive fixed-width time windows. It backs
// the paper's "requests received per 100 ms" plots (Figs. 2, 8, 9).
type Windowed struct {
	width  int64 // ns
	counts []int
}

// NewWindowed returns a Windowed counter with the given window width (ns).
// It panics if width is not positive.
func NewWindowed(width int64) *Windowed {
	if width <= 0 {
		panic("stats: window width must be positive")
	}
	return &Windowed{width: width}
}

// Record counts one event at absolute time t (ns, t ≥ 0).
func (w *Windowed) Record(t int64) {
	if t < 0 {
		t = 0
	}
	i := int(t / w.width)
	for len(w.counts) <= i {
		w.counts = append(w.counts, 0)
	}
	w.counts[i]++
}

// Series reports the per-window counts (shared slice; callers must not
// modify it).
func (w *Windowed) Series() []int { return w.counts }

// Width reports the window width in nanoseconds.
func (w *Windowed) Width() int64 { return w.width }

// Total reports the total number of recorded events.
func (w *Windowed) Total() int {
	t := 0
	for _, c := range w.counts {
		t += c
	}
	return t
}

// Distribution converts the per-window counts to a Sample, for ECDFs over
// "reads served per window" (Fig. 8).
func (w *Windowed) Distribution() *Sample {
	s := NewSample(len(w.counts))
	for _, c := range w.counts {
		s.Add(float64(c))
	}
	return s
}

// OscillationIndex quantifies load oscillation as the ratio between the 99th
// percentile and the median of per-window counts. Synchronized herd behavior
// (Fig. 2) yields a large index; smooth load (Fig. 9 top) a small one.
func (w *Windowed) OscillationIndex() float64 {
	d := w.Distribution()
	med := d.Percentile(50)
	if med <= 0 {
		// Degenerate: mostly-empty windows punctuated by bursts is the
		// worst oscillation; report p99 against a floor of one request.
		med = 1
	}
	return d.Percentile(99) / med
}

// MovingMedian applies a centered moving-median filter of the given window
// size to xs (the paper uses a 50-sample moving median in Fig. 11, citing
// robustness over moving averages). Window is clamped at the edges.
func MovingMedian(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	buf := make([]float64, 0, window)
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := lo + window
		if hi > len(xs) {
			hi = len(xs)
		}
		buf = append(buf[:0], xs[lo:hi]...)
		sort.Float64s(buf)
		m := len(buf)
		if m%2 == 1 {
			out[i] = buf[m/2]
		} else {
			out[i] = (buf[m/2-1] + buf[m/2]) / 2
		}
	}
	return out
}
