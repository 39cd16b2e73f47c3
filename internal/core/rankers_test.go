package core

import (
	"testing"
	"time"
)

func TestLORPrefersFewestOutstanding(t *testing.T) {
	l := NewLOR(nil, 1)
	group := []ServerID{1, 2, 3}
	l.OnSendN(1, 1, 0)
	l.OnSendN(1, 1, 0)
	l.OnSendN(2, 1, 0)
	for i := 0; i < 20; i++ {
		if got := l.Rank(nil, group, 0)[0]; got != 3 {
			t.Fatalf("rank[0] = %v, want 3 (zero outstanding)", got)
		}
	}
	l.OnResponseN(1, 1, Feedback{}, time.Millisecond, 0)
	l.OnResponseN(1, 1, Feedback{}, time.Millisecond, 0)
	if l.Outstanding(1) != 0 {
		t.Fatalf("outstanding(1) = %v, want 0", l.Outstanding(1))
	}
	l.OnResponseN(1, 1, Feedback{}, time.Millisecond, 0) // spurious response
	if l.Outstanding(1) != 0 {
		t.Fatal("outstanding went negative")
	}
}

func TestLORTieBreakUniformish(t *testing.T) {
	l := NewLOR(nil, 2)
	group := []ServerID{1, 2}
	counts := map[ServerID]int{}
	for i := 0; i < 2000; i++ {
		counts[l.Rank(nil, group, 0)[0]]++
	}
	if counts[1] < 800 || counts[1] > 1200 {
		t.Fatalf("LOR tie-break skew: %v", counts)
	}
}

func TestRoundRobinCyclesThroughGroup(t *testing.T) {
	r := NewRoundRobin(nil)
	group := []ServerID{10, 20, 30}
	var firsts []ServerID
	for i := 0; i < 6; i++ {
		firsts = append(firsts, r.Rank(nil, group, 0)[0])
	}
	want := []ServerID{10, 20, 30, 10, 20, 30}
	for i := range want {
		if firsts[i] != want[i] {
			t.Fatalf("round robin order = %v, want %v", firsts, want)
		}
	}
}

func TestRoundRobinIndependentPerGroup(t *testing.T) {
	r := NewRoundRobin(nil)
	a := []ServerID{1, 2}
	b := []ServerID{3, 4}
	if r.Rank(nil, a, 0)[0] != 1 || r.Rank(nil, b, 0)[0] != 3 {
		t.Fatal("fresh groups should start at their first member")
	}
	if r.Rank(nil, a, 0)[0] != 2 {
		t.Fatal("group a should advance independently")
	}
	if r.Rank(nil, b, 0)[0] != 4 {
		t.Fatal("group b should advance independently")
	}
}

func TestRoundRobinRotationIsCompleteOrder(t *testing.T) {
	r := NewRoundRobin(nil)
	group := []ServerID{1, 2, 3}
	r.Rank(nil, group, 0)
	got := r.Rank(nil, group, 0)
	want := []ServerID{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestRandomCoversAllServers(t *testing.T) {
	r := NewRandom(3)
	group := []ServerID{1, 2, 3, 4}
	counts := map[ServerID]int{}
	for i := 0; i < 4000; i++ {
		counts[r.Rank(nil, group, 0)[0]]++
	}
	for _, s := range group {
		if counts[s] < 800 || counts[s] > 1200 {
			t.Fatalf("random skew: %v", counts)
		}
	}
}

func TestTwoChoicePrefersLessLoadedOfPair(t *testing.T) {
	tc := NewTwoChoice(nil, 4)
	group := []ServerID{1, 2}
	for i := 0; i < 5; i++ {
		tc.OnSendN(1, 1, 0)
	}
	// With only two servers the pair is always {1,2}; 2 must always lead.
	for i := 0; i < 50; i++ {
		if got := tc.Rank(nil, group, 0)[0]; got != 2 {
			t.Fatalf("two-choice rank[0] = %v, want 2", got)
		}
	}
	tc.OnResponseN(1, 1, Feedback{}, time.Millisecond, 0)
	if got := tc.Outstanding(1); got != 4 {
		t.Fatalf("outstanding = %v, want 4", got)
	}
}

func TestLeastResponseTimePrefersFastServer(t *testing.T) {
	l := NewLeastResponseTime(nil, 0.9, 5)
	group := []ServerID{1, 2}
	for i := 0; i < 10; i++ {
		l.OnResponseN(1, 1, Feedback{}, 2*time.Millisecond, 0)
		l.OnResponseN(2, 1, Feedback{}, 30*time.Millisecond, 0)
	}
	for i := 0; i < 20; i++ {
		if got := l.Rank(nil, group, 0)[0]; got != 1 {
			t.Fatalf("LRT rank[0] = %v, want 1", got)
		}
	}
}

func TestLeastResponseTimeExploresUnseen(t *testing.T) {
	l := NewLeastResponseTime(nil, 0.9, 6)
	group := []ServerID{1, 2}
	l.OnResponseN(1, 1, Feedback{}, time.Millisecond, 0)
	if got := l.Rank(nil, group, 0)[0]; got != 2 {
		t.Fatalf("rank[0] = %v, want unseen server 2", got)
	}
}

func TestWeightedRandomSkewsTowardFastServer(t *testing.T) {
	w := NewWeightedRandom(nil, 0.9, 7)
	group := []ServerID{1, 2}
	for i := 0; i < 10; i++ {
		w.OnResponseN(1, 1, Feedback{}, 2*time.Millisecond, 0)  // weight 500
		w.OnResponseN(2, 1, Feedback{}, 20*time.Millisecond, 0) // weight 50
	}
	counts := map[ServerID]int{}
	for i := 0; i < 5000; i++ {
		counts[w.Rank(nil, group, 0)[0]]++
	}
	frac := float64(counts[1]) / 5000
	if frac < 0.84 || frac > 0.97 { // expect ~500/550 ≈ 0.91
		t.Fatalf("weighted fraction toward fast server = %v, want ≈0.91", frac)
	}
}

func TestWeightedRandomUnseenGetsExplored(t *testing.T) {
	w := NewWeightedRandom(nil, 0.9, 8)
	group := []ServerID{1, 2}
	w.OnResponseN(1, 1, Feedback{}, 10*time.Millisecond, 0)
	counts := map[ServerID]int{}
	for i := 0; i < 2000; i++ {
		counts[w.Rank(nil, group, 0)[0]]++
	}
	if counts[2] < 600 { // unseen gets best-seen weight → ~50%
		t.Fatalf("unseen server underexplored: %v", counts)
	}
}

func TestOracleRanksByInstantaneousQMu(t *testing.T) {
	state := map[ServerID]struct{ q, t float64 }{
		1: {q: 10, t: 0.004}, // (10+1)·4ms = 44ms
		2: {q: 1, t: 0.020},  // (1+1)·20ms = 40ms
		3: {q: 0, t: 0.050},  // 50ms
	}
	o := NewOracle(func(s ServerID) (float64, float64) {
		st := state[s]
		return st.q, st.t
	}, 9)
	got := o.Rank(nil, []ServerID{1, 2, 3}, 0)
	want := []ServerID{2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("oracle rank = %v, want %v", got, want)
		}
	}
}

func TestOracleNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOracle(nil) did not panic")
		}
	}()
	NewOracle(nil, 0)
}

func TestAllRankersNameAndPermutation(t *testing.T) {
	group := []ServerID{5, 6, 7, 8}
	rankers := []Ranker{
		NewCubicRanker(RankerConfig{Seed: 1}),
		NewLOR(nil, 1),
		NewRoundRobin(nil),
		NewRandom(1),
		NewTwoChoice(nil, 1),
		NewLeastResponseTime(nil, 0.9, 1),
		NewWeightedRandom(nil, 0.9, 1),
		NewOracle(func(ServerID) (float64, float64) { return 0, 0.001 }, 1),
		NewDynamicSnitch(SnitchConfig{Seed: 1}),
	}
	seenNames := map[string]bool{}
	for _, r := range rankers {
		if r.Name() == "" {
			t.Fatalf("%T has empty name", r)
		}
		if seenNames[r.Name()] {
			t.Fatalf("duplicate ranker name %q", r.Name())
		}
		seenNames[r.Name()] = true
		r.OnSendN(group[0], 1, 0)
		r.OnResponseN(group[0], 1, fb(1, time.Millisecond), 2*time.Millisecond, 0)
		out := r.Rank(nil, group, msec)
		if len(out) != len(group) {
			t.Fatalf("%s: rank length %d", r.Name(), len(out))
		}
		seen := map[ServerID]bool{}
		for _, s := range out {
			if seen[s] {
				t.Fatalf("%s: duplicate server %d in ranking %v", r.Name(), s, out)
			}
			seen[s] = true
		}
	}
}
