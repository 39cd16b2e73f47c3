package core

// Zero-allocation regression tests: the steady-state selection hot path —
// Rank, Best, Pick and OnResponseN, for every ranker — must not allocate.
// A regression here silently reintroduces GC pressure on the exact path
// whose overhead C3 exists to remove, so these fail loudly.

import (
	"testing"
	"time"

	"c3/internal/ratelimit"
)

// warmRanker exercises every state path once so lazily-grown tables and
// scratch buffers reach steady state before the allocation count starts.
func warmRanker(r Ranker, group []ServerID) {
	dst := make([]ServerID, len(group))
	for i, s := range group {
		r.OnSendN(s, 1, int64(i))
		r.OnResponseN(s, 1, Feedback{QueueSize: float64(i + 1), ServiceTime: time.Millisecond},
			2*time.Millisecond, int64(i+1))
	}
	r.Rank(dst, group, 10)
	if bp, ok := r.(BestPicker); ok {
		bp.Best(group, 10)
	}
}

func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", what, avg)
	}
}

func allocTestRankers() map[string]Ranker {
	oracleFn := func(s ServerID) (float64, float64) { return float64(s), 0.001 }
	return map[string]Ranker{
		"C3":   NewCubicRanker(RankerConfig{Seed: 1}),
		"LOR":  NewLOR(nil, 1),
		"RR":   NewRoundRobin(nil),
		"RND":  NewRandom(1),
		"2C":   NewTwoChoice(nil, 1),
		"LRT":  NewLeastResponseTime(nil, 0.9, 1),
		"WRND": NewWeightedRandom(nil, 0.9, 1),
		"DS":   NewDynamicSnitch(SnitchConfig{Seed: 1}),
		"ORA":  NewOracle(oracleFn, 1),
	}
}

func TestRankSteadyStateZeroAllocs(t *testing.T) {
	group := []ServerID{0, 1, 2}
	for name, r := range allocTestRankers() {
		warmRanker(r, group)
		dst := make([]ServerID, len(group))
		assertZeroAllocs(t, name+".Rank", func() {
			dst = r.Rank(dst, group, 20)
		})
	}
}

func TestBestSteadyStateZeroAllocs(t *testing.T) {
	group := []ServerID{0, 1, 2}
	for name, r := range allocTestRankers() {
		bp, ok := r.(BestPicker)
		if !ok {
			continue
		}
		warmRanker(r, group)
		assertZeroAllocs(t, name+".Best", func() {
			bp.Best(group, 20)
		})
	}
}

func TestOnResponseSteadyStateZeroAllocs(t *testing.T) {
	group := []ServerID{0, 1, 2}
	fb := Feedback{QueueSize: 2, ServiceTime: time.Millisecond}
	for name, r := range allocTestRankers() {
		warmRanker(r, group)
		assertZeroAllocs(t, name+".OnResponseN", func() {
			r.OnSendN(1, 1, 30)
			r.OnResponseN(1, 1, fb, 2*time.Millisecond, 30)
			r.OnSendN(1, 8, 31)
			r.OnResponseN(1, 8, fb, 2*time.Millisecond, 31)
		})
	}
}

func TestPickSteadyStateZeroAllocs(t *testing.T) {
	group := []ServerID{0, 1, 2}
	fb := Feedback{QueueSize: 1, ServiceTime: time.Millisecond}

	noRate := NewClient(NewCubicRanker(RankerConfig{Seed: 1}), ClientConfig{})
	for _, s := range group {
		noRate.OnResponse(s, fb, 2*time.Millisecond, 0)
	}
	noRate.Pick(group, 1)
	assertZeroAllocs(t, "Pick/noRate", func() {
		s, _, _ := noRate.Pick(group, 2)
		noRate.OnResponse(s, fb, 2*time.Millisecond, 2)
	})

	rated := NewClient(NewCubicRanker(RankerConfig{Seed: 1}), ClientConfig{
		RateControl: true,
		Rate:        ratelimit.Config{InitialRate: 1 << 30, MaxRate: 1 << 30},
	})
	for _, s := range group {
		rated.OnResponse(s, fb, 2*time.Millisecond, 0)
	}
	rated.Pick(group, 1)
	assertZeroAllocs(t, "Pick/rateControl", func() {
		s, ok, _ := rated.Pick(group, 3)
		if !ok {
			t.Fatal("pick failed under ample rate")
		}
		rated.OnResponse(s, fb, 2*time.Millisecond, 3)
	})

	// The all-over-rate path (rank + one-pass retry computation) must not
	// allocate either.
	starved := NewClient(NewRoundRobin(nil), ClientConfig{
		RateControl: true,
		Rate:        ratelimit.Config{InitialRate: 1, MinRate: 1},
	})
	for starvedPicks := 0; ; starvedPicks++ {
		if _, ok, _ := starved.Pick(group, 4); !ok {
			break
		}
		if starvedPicks > 10 {
			t.Fatal("limiter never exhausted")
		}
	}
	assertZeroAllocs(t, "Pick/overRate", func() {
		if _, ok, _ := starved.Pick(group, 4); ok {
			t.Fatal("expected over-rate pick to fail")
		}
	})
}

// TestPickBestMatchesRankHead pins the fast-path contract: with rate control
// off, Pick must return a replica that a full Rank could have put first —
// i.e. one of the minimum-score replicas. (The RNG streams differ, so we
// check score-minimality rather than literal equality.)
func TestPickBestMatchesRankHead(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 1})
	c := NewClient(r, ClientConfig{})
	group := []ServerID{0, 1, 2}
	fb := func(s ServerID, q float64) {
		c.OnResponse(s, Feedback{QueueSize: q, ServiceTime: time.Millisecond}, 2*time.Millisecond, 0)
	}
	fb(0, 10)
	fb(1, 1)
	fb(2, 10)
	for i := 0; i < 20; i++ {
		s, ok, _ := c.Pick(group, int64(i))
		if !ok {
			t.Fatal("pick failed")
		}
		if s != 1 {
			t.Fatalf("pick = %d, want the unique minimum-score replica 1", s)
		}
		fb(1, 1) // keep outstanding balanced so 1 stays the minimum
	}
}
