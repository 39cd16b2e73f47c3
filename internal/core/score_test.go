package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

const msec = int64(1e6)

func fb(q float64, svc time.Duration) Feedback {
	return Feedback{QueueSize: q, ServiceTime: svc}
}

func TestCubicScoreReducesToRbarAtUnitQueue(t *testing.T) {
	// Paper: "The score reduces to Rs when the queue-size estimate term of
	// the server is 1". Ψ = R − T + 1^b·T = R.
	for _, b := range []float64{1, 2, 3, 4} {
		if got := CubicScore(0.010, 0.004, 1, b); math.Abs(got-0.010) > 1e-15 {
			t.Fatalf("b=%v: score = %v, want 0.010", b, got)
		}
	}
}

func TestCubicScorePenalizesQueuesSuperlinearly(t *testing.T) {
	// Fig. 4: with b=3, a server with service time 4 ms matches a 20 ms
	// server when its queue estimate is ∛(20/4) ≈ 1.71× larger.
	// Setting R̄ = T̄ isolates the queue term: Ψ = q̂^b·T̄ exactly.
	qSlow := 20.0
	qFastEqual := qSlow * math.Cbrt(20.0/4.0)
	slow := CubicScore(0.020, 0.020, qSlow, 3)
	fast := CubicScore(0.004, 0.004, qFastEqual, 3)
	if math.Abs(slow-fast)/slow > 1e-9 {
		t.Fatalf("scores not equal at the cubic crossover: slow=%v fast=%v", slow, fast)
	}
	// Under a linear score the fast server would need a 5× longer queue.
	slowLin := CubicScore(0.020, 0.020, qSlow, 1)
	fastLin := CubicScore(0.004, 0.004, qSlow*5, 1)
	if math.Abs(slowLin-fastLin) > 1e-12 {
		t.Fatalf("linear crossover broken: %v vs %v", slowLin, fastLin)
	}
}

// Property: the score is non-decreasing in the queue estimate and in the
// service time (for q̂ ≥ 1).
func TestCubicScoreMonotoneProperty(t *testing.T) {
	f := func(r8, t8, q8, dq8 uint8) bool {
		rbar := float64(r8) / 1000
		tbar := float64(t8)/10000 + 1e-6
		qhat := 1 + float64(q8)/4
		dq := float64(dq8) / 16
		s1 := CubicScore(rbar, tbar, qhat, 3)
		s2 := CubicScore(rbar, tbar, qhat+dq, 3)
		return s2 >= s1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCubicRankerPrefersUnseenServers(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 1})
	group := []ServerID{1, 2, 3}
	// Feed data for 1 and 2 only; 3 must rank first (exploration).
	r.OnSendN(1, 1, 0)
	r.OnResponseN(1, 1, fb(0, 4*time.Millisecond), 5*time.Millisecond, msec)
	r.OnSendN(2, 1, 0)
	r.OnResponseN(2, 1, fb(0, 4*time.Millisecond), 5*time.Millisecond, msec)
	got := r.Rank(nil, group, 2*msec)
	if got[0] != 3 {
		t.Fatalf("rank = %v, want unseen server 3 first", got)
	}
}

func TestCubicRankerPrefersFasterServer(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 2})
	group := []ServerID{10, 20}
	for i := 0; i < 20; i++ {
		now := int64(i) * msec
		r.OnSendN(10, 1, now)
		r.OnResponseN(10, 1, fb(1, 4*time.Millisecond), 5*time.Millisecond, now)
		r.OnSendN(20, 1, now)
		r.OnResponseN(20, 1, fb(1, 20*time.Millisecond), 22*time.Millisecond, now)
	}
	for trial := 0; trial < 50; trial++ {
		got := r.Rank(nil, group, 100*msec)
		if got[0] != 10 {
			t.Fatalf("trial %d: rank = %v, want fast server 10 first", trial, got)
		}
	}
}

func TestCubicRankerAvoidsLongQueues(t *testing.T) {
	// The fast server accumulates queue-size feedback; past the cubic
	// crossover the slow-but-idle server must win.
	r := NewCubicRanker(RankerConfig{Seed: 3, Alpha: 1}) // alpha=1: track last sample
	group := []ServerID{1, 2}
	// Server 1: 4 ms service but queue 40. Server 2: 20 ms service, queue 0.
	r.OnSendN(1, 1, 0)
	r.OnResponseN(1, 1, fb(40, 4*time.Millisecond), 5*time.Millisecond, 0)
	r.OnSendN(2, 1, 0)
	r.OnResponseN(2, 1, fb(0, 20*time.Millisecond), 21*time.Millisecond, 0)
	// Ψ1 ≈ 41³·0.004 ≈ 275; Ψ2 ≈ 1³·0.020 ≈ 0.02.
	got := r.Rank(nil, group, msec)
	if got[0] != 2 {
		t.Fatalf("rank = %v, want queue-penalized server 2 first", got)
	}
}

func TestConcurrencyCompensation(t *testing.T) {
	// Two clients, same feedback, different outstanding counts: the one
	// with more in-flight requests must project a worse score (robustness
	// to synchronization, §3.1).
	mk := func(outstanding int) float64 {
		r := NewCubicRanker(RankerConfig{Seed: 4, ConcurrencyWeight: 100})
		r.OnSendN(1, 1, 0)
		r.OnResponseN(1, 1, fb(2, 4*time.Millisecond), 5*time.Millisecond, 0)
		for i := 0; i < outstanding; i++ {
			r.OnSendN(1, 1, msec)
		}
		return r.Score(1, 2*msec)
	}
	light, heavy := mk(1), mk(5)
	if heavy <= light {
		t.Fatalf("heavy-demand score %v should exceed light-demand score %v", heavy, light)
	}
}

func TestQueueEstimateFormula(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 5, ConcurrencyWeight: 7, Alpha: 1})
	r.OnSendN(1, 1, 0) // outstanding = 1
	r.OnResponseN(1, 1, fb(3, time.Millisecond), time.Millisecond, 0)
	r.OnSendN(1, 1, 0)
	r.OnSendN(1, 1, 0) // outstanding = 2
	// q̂ = 1 + 2·7 + 3 = 18
	if got := r.Signals(1).QHat; math.Abs(got-18) > 1e-12 {
		t.Fatalf("Signals(1).QHat = %v, want 18", got)
	}
	if got := r.Outstanding(1); got != 2 {
		t.Fatalf("Outstanding = %v, want 2", got)
	}
}

func TestOutstandingNeverNegative(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 6})
	r.OnResponseN(1, 1, fb(0, time.Millisecond), time.Millisecond, 0) // response without send
	if got := r.Outstanding(1); got != 0 {
		t.Fatalf("Outstanding = %v, want 0", got)
	}
}

func TestRankIsPermutationProperty(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 7})
	f := func(ids []int16, data uint8) bool {
		seen := map[ServerID]bool{}
		var group []ServerID
		for _, id := range ids {
			s := ServerID(id)
			if !seen[s] {
				seen[s] = true
				group = append(group, s)
			}
		}
		if len(group) > 0 && data%2 == 0 {
			s := group[0]
			r.OnSendN(s, 1, 0)
			r.OnResponseN(s, 1, fb(float64(data), time.Millisecond), time.Millisecond, 0)
		}
		out := r.Rank(nil, group, msec)
		if len(out) != len(group) {
			return false
		}
		got := map[ServerID]bool{}
		for _, s := range out {
			got[s] = true
		}
		for _, s := range group {
			if !got[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankTieBreakingIsUniformish(t *testing.T) {
	// With no feedback at all, every server scores −Inf; ranking must
	// spread the first position around rather than always picking one.
	r := NewCubicRanker(RankerConfig{Seed: 8})
	group := []ServerID{1, 2, 3}
	counts := map[ServerID]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Rank(nil, group, 0)[0]]++
	}
	for s, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("tie-break skew: server %d chosen %d/3000", s, n)
		}
	}
}

func TestRankIntoProvidedScratch(t *testing.T) {
	r := NewCubicRanker(RankerConfig{Seed: 9})
	group := []ServerID{4, 5, 6}
	dst := make([]ServerID, 0, 8)
	out := r.Rank(dst, group, 0)
	if len(out) != 3 {
		t.Fatalf("len(out) = %d", len(out))
	}
	// group must be untouched.
	if group[0] != 4 || group[1] != 5 || group[2] != 6 {
		t.Fatalf("group mutated: %v", group)
	}
}

func TestRankEmptyGroup(t *testing.T) {
	r := NewCubicRanker(RankerConfig{})
	if out := r.Rank(nil, nil, 0); len(out) != 0 {
		t.Fatalf("rank of empty group = %v", out)
	}
}

func BenchmarkCubicRank3(b *testing.B) {
	r := NewCubicRanker(RankerConfig{Seed: 1})
	group := []ServerID{1, 2, 3}
	for _, s := range group {
		r.OnSendN(s, 1, 0)
		r.OnResponseN(s, 1, fb(2, 4*time.Millisecond), 5*time.Millisecond, 0)
	}
	dst := make([]ServerID, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank(dst, group, int64(i))
	}
}
