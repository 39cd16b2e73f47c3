package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int64
	for _, at := range []int64{30, 10, 20, 5, 25} {
		at := at
		s.At(at, func() { order = append(order, at) })
	}
	s.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterAndClock(t *testing.T) {
	s := New()
	var sawNow int64 = -1
	s.After(50, func() {
		sawNow = s.Now()
		s.After(25, func() { sawNow = s.Now() })
	})
	s.Run()
	if sawNow != 75 {
		t.Fatalf("nested After fired at %d, want 75", sawNow)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("At with nil fn did not panic")
		}
	}()
	s.At(1, nil)
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	fired := false
	s.At(10, func() {
		s.After(-100, func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("After(-d) event never fired")
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %d, want 10", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and nil-cancel must be safe.
	e.Cancel()
	(*Event)(nil).Cancel()
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	late := s.At(100, func() { fired = true })
	s.At(50, func() { late.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=50 still fired at t=100")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New()
		r := RNG(123, 0)
		var trace []int64
		var tick func()
		tick = func() {
			trace = append(trace, s.Now())
			if len(trace) < 1000 {
				s.After(Exp(r, 1000), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a, b := RNG(1, 0), RNG(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams 0 and 1 collide on %d/100 draws", same)
	}
}

func TestExpPositiveAndMeanish(t *testing.T) {
	r := RNG(9, 9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := Exp(r, 4e6) // mean 4ms
		if d < 1 {
			t.Fatal("Exp returned < 1ns")
		}
		sum += float64(d)
	}
	mean := sum / n
	if mean < 3.8e6 || mean > 4.2e6 {
		t.Fatalf("empirical mean = %v, want ~4e6", mean)
	}
}

// Property: for any batch of event times, execution order equals sorted order.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []uint32) bool {
		s := New()
		var fired []int64
		for _, ut := range times {
			at := int64(ut)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		want := make([]int64, 0, len(times))
		for _, ut := range times {
			want = append(want, int64(ut))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	r := RNG(1, 1)
	b.ResetTimer()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(Exp(r, 100), tick)
		}
	}
	s.After(0, tick)
	s.Run()
}
