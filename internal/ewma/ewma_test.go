package ewma

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAFirstSampleInitializes(t *testing.T) {
	e := New(0.5)
	e.Add(42)
	if got := e.Value(); got != 42 {
		t.Fatalf("Value after first sample = %v, want 42", got)
	}
	if !e.Initialized() {
		t.Fatal("Initialized() = false after a sample")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := New(0.3)
	for i := 0; i < 200; i++ {
		e.Add(7)
	}
	if got := e.Value(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Value = %v, want 7", got)
	}
}

func TestEWMARecurrence(t *testing.T) {
	e := New(0.25)
	e.Add(4)
	e.Add(8)
	// v = 0.25*8 + 0.75*4 = 5
	if got := e.Value(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Value = %v, want 5", got)
	}
	e.Add(0)
	// v = 0.25*0 + 0.75*5 = 3.75
	if got := e.Value(); math.Abs(got-3.75) > 1e-12 {
		t.Fatalf("Value = %v, want 3.75", got)
	}
}

func TestEWMAAddNMatchesRepeatedAdd(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32, 100} {
		closed := New(0.9)
		looped := New(0.9)
		closed.Add(3)
		looped.Add(3)
		closed.AddN(11, n)
		for i := 0; i < n; i++ {
			looped.Add(11)
		}
		if got, want := closed.Value(), looped.Value(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("AddN(11, %d) = %v, repeated Add = %v", n, got, want)
		}
		if closed.Count() != looped.Count() {
			t.Fatalf("AddN(_, %d) count = %d, repeated Add count = %d",
				n, closed.Count(), looped.Count())
		}
	}
	// n = 1 is Add, bit for bit: a point event routed through the weighted
	// path must not perturb any estimator, at any smoothing factor.
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.9} {
		weighted := New(alpha)
		point := New(alpha)
		for _, x := range []float64{1, 5, 2, 7.25, 0.3} {
			weighted.AddN(x, 1)
			point.Add(x)
			if got, want := weighted.Value(), point.Value(); got != want {
				t.Fatalf("alpha=%v: AddN(%v, 1) = %v, Add = %v", alpha, x, got, want)
			}
		}
	}
}

func TestEWMAAddNInitializesLikeAdd(t *testing.T) {
	e := New(0.5)
	e.AddN(42, 5)
	if got := e.Value(); got != 42 {
		t.Fatalf("Value after initializing AddN = %v, want 42", got)
	}
	if e.Count() != 5 {
		t.Fatalf("Count = %d, want 5", e.Count())
	}
	e.AddN(10, 0) // no-op
	if e.Value() != 42 || e.Count() != 5 {
		t.Fatalf("AddN(_, 0) mutated state: %+v", e)
	}
}

func TestEWMAAlphaOneTracksLastSample(t *testing.T) {
	e := New(1)
	for _, x := range []float64{3, 9, -2, 0.5} {
		e.Add(x)
		if e.Value() != x {
			t.Fatalf("alpha=1: Value = %v, want %v", e.Value(), x)
		}
	}
}

func TestEWMAReset(t *testing.T) {
	e := New(0.5)
	e.Add(10)
	e.Reset()
	if e.Initialized() || e.Value() != 0 || e.Count() != 0 {
		t.Fatalf("Reset did not clear state: %+v", e)
	}
	e.Add(3)
	if e.Value() != 3 {
		t.Fatalf("first sample after Reset = %v, want 3", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", a)
				}
			}()
			New(a)
		}()
	}
}

// Property: EWMA output is always within [min, max] of the samples seen.
func TestEWMABoundedByInputsProperty(t *testing.T) {
	f := func(samples []float64) bool {
		clean := samples[:0]
		for _, s := range samples {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				clean = append(clean, s)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e := New(0.37)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range clean {
			e.Add(s)
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
			v := e.Value()
			if v < lo-1e-9*math.Abs(lo)-1e-9 || v > hi+1e-9*math.Abs(hi)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
