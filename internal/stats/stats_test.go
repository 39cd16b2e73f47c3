package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleMoments(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !approx(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if !approx(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.Variance() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 4; i++ {
		s.Add(float64(i)) // 1,2,3,4
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25}, {-3, 1}, {150, 4},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileOfSingleton(t *testing.T) {
	s := NewSample(0)
	s.Add(3.5)
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := s.Percentile(p); got != 3.5 {
			t.Fatalf("Percentile(%v) = %v, want 3.5", p, got)
		}
	}
}

func TestPercentileInterleavedWithAdds(t *testing.T) {
	s := NewSample(0)
	s.Add(10)
	s.Add(20)
	if got := s.Percentile(50); got != 15 {
		t.Fatalf("median = %v, want 15", got)
	}
	s.Add(0) // forces re-sort
	if got := s.Percentile(50); got != 10 {
		t.Fatalf("median after add = %v, want 10", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		s := NewSample(0)
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.Count() == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		a, b := s.Percentile(p1), s.Percentile(p2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	u := s.Summarize()
	if u.Count != 1000 {
		t.Fatalf("Count = %d", u.Count)
	}
	if !approx(u.P50, 500.5, 1e-9) || !approx(u.Mean, 500.5, 1e-9) {
		t.Fatalf("P50/Mean = %v/%v, want 500.5", u.P50, u.Mean)
	}
	if u.P999 < u.P99 || u.P99 < u.P95 || u.P95 < u.P50 {
		t.Fatal("percentiles not ordered")
	}
	if u.TailToMedian <= 1 {
		t.Fatalf("TailToMedian = %v, want > 1", u.TailToMedian)
	}
	if u.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{10, 12, 8, 11, 9})
	if !approx(mean, 10, 1e-12) {
		t.Fatalf("mean = %v, want 10", mean)
	}
	if half <= 0 || half > 3 {
		t.Fatalf("half CI = %v, implausible", half)
	}
	if m, h := MeanCI95(nil); m != 0 || h != 0 {
		t.Fatal("empty runs should give zeros")
	}
	if m, h := MeanCI95([]float64{7}); m != 7 || h != 0 {
		t.Fatalf("single run: %v ± %v, want 7 ± 0", m, h)
	}
}

func TestWindowed(t *testing.T) {
	w := NewWindowed(100)
	for _, ts := range []int64{0, 50, 99, 100, 250, 999} {
		w.Record(ts)
	}
	got := w.Series()
	want := []int{3, 1, 1, 0, 0, 0, 0, 0, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("series length = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if w.Total() != 6 {
		t.Fatalf("Total = %d, want 6", w.Total())
	}
	if w.Width() != 100 {
		t.Fatalf("Width = %d", w.Width())
	}
}

func TestWindowedNegativeTimeClamped(t *testing.T) {
	w := NewWindowed(10)
	w.Record(-5)
	if w.Series()[0] != 1 {
		t.Fatal("negative time should clamp to window 0")
	}
}

func TestOscillationIndexDetectsBursts(t *testing.T) {
	smooth := NewWindowed(1)
	bursty := NewWindowed(1)
	r := rand.New(rand.NewPCG(7, 7))
	for w := int64(0); w < 1000; w++ {
		for i := 0; i < 100; i++ { // constant 100/window
			smooth.Record(w)
		}
		// Bursty: usually 10, occasionally 500.
		n := 10
		if r.Float64() < 0.02 {
			n = 500
		}
		for i := 0; i < n; i++ {
			bursty.Record(w)
		}
	}
	si, bi := smooth.OscillationIndex(), bursty.OscillationIndex()
	if si >= 1.2 {
		t.Fatalf("smooth oscillation index = %v, want ~1", si)
	}
	if bi < 10 {
		t.Fatalf("bursty oscillation index = %v, want >= 10", bi)
	}
}

func TestMovingMedianConstant(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 5}
	got := MovingMedian(xs, 3)
	for i, v := range got {
		if v != 5 {
			t.Fatalf("[%d] = %v, want 5", i, v)
		}
	}
}

func TestMovingMedianSuppressesSpike(t *testing.T) {
	xs := []float64{1, 1, 100, 1, 1}
	got := MovingMedian(xs, 3)
	for i, v := range got {
		if v != 1 {
			t.Fatalf("[%d] = %v, want 1 (spike should be filtered)", i, v)
		}
	}
}

func TestMovingMedianWindowOne(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	got := MovingMedian(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window=1 must be identity; [%d]=%v", i, got[i])
		}
	}
	if out := MovingMedian(nil, 5); len(out) != 0 {
		t.Fatal("empty input must give empty output")
	}
}

// Property: moving median output values are always drawn from the input set.
func TestMovingMedianValuesFromInputProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		xs := raw[:0]
		for _, x := range raw {
			// Restrict to magnitudes where midpoint averaging cannot
			// overflow; latencies are always in this range.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				xs = append(xs, x)
			}
		}
		window := int(w%9) + 1
		out := MovingMedian(xs, window)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, v := range out {
			i := sort.SearchFloat64s(sorted, v)
			exact := i < len(sorted) && sorted[i] == v
			if exact {
				continue
			}
			// Even windows average two members; accept midpoints.
			ok := false
			for j := 0; j+1 < len(sorted) && !ok; j++ {
				if approx((sorted[j]+sorted[j+1])/2, v, 1e-9) {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSampleAdd(b *testing.B) {
	s := NewSample(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
	}
}

func BenchmarkPercentile1M(b *testing.B) {
	s := NewSample(1 << 20)
	r := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 1<<20; i++ {
		s.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(r.Float64()) // force re-sort
		_ = s.Percentile(99.9)
	}
}
