package core

import (
	"math"
	"testing"
	"time"

	"c3/internal/ratelimit"
)

// TestCubicBatchAccountingMatchesPointLoop: OnSendN/OnResponseN/OnAbandonN on
// the C3 ranker must match n repetitions of the one-key events — outstanding
// counts exactly, every EWMA up to rounding — so the score function cannot
// tell batch traffic from the point traffic it stands for.
func TestCubicBatchAccountingMatchesPointLoop(t *testing.T) {
	const n = 32
	const s = ServerID(3)
	fb := Feedback{QueueSize: 4, ServiceTime: 2 * time.Millisecond}
	rtt := 5 * time.Millisecond

	batch := NewCubicRanker(RankerConfig{Seed: 1})
	point := NewCubicRanker(RankerConfig{Seed: 1})

	// Prime both with one point response so the EWMAs are initialized and the
	// closed-form fold exercises the non-initial branch.
	batch.OnResponseN(s, 1, fb, rtt, 0)
	point.OnResponseN(s, 1, fb, rtt, 0)

	batch.OnSendN(s, n, 1)
	for i := 0; i < n; i++ {
		point.OnSendN(s, 1, 1)
	}
	if got, want := batch.Outstanding(s), point.Outstanding(s); got != want || got != n {
		t.Fatalf("outstanding after OnSendN = %v, point loop = %v, want %d", got, want, n)
	}

	fb2 := Feedback{QueueSize: 9, ServiceTime: 3 * time.Millisecond}
	rtt2 := 8 * time.Millisecond
	batch.OnResponseN(s, n, fb2, rtt2, 2)
	for i := 0; i < n; i++ {
		point.OnResponseN(s, 1, fb2, rtt2, 2)
	}
	if got, want := batch.Outstanding(s), point.Outstanding(s); got != want || got != 0 {
		t.Fatalf("outstanding after OnResponseN = %v, point loop = %v, want 0", got, want)
	}
	bs, ps := batch.Score(s, 3), point.Score(s, 3)
	if math.Abs(bs-ps) > 1e-9*math.Max(math.Abs(bs), 1) {
		t.Fatalf("score after weighted feedback = %v, point loop = %v", bs, ps)
	}
	if q1, q2 := batch.Signals(s).QHat, point.Signals(s).QHat; math.Abs(q1-q2) > 1e-9 {
		t.Fatalf("q̂ after weighted feedback = %v, point loop = %v", q1, q2)
	}

	batch.OnSendN(s, n, 4)
	batch.OnAbandonN(s, n, 5)
	if got := batch.Outstanding(s); got != 0 {
		t.Fatalf("outstanding after OnAbandonN = %v, want 0", got)
	}
	// Abandoning more than outstanding clamps at zero.
	batch.OnAbandonN(s, n, 6)
	if got := batch.Outstanding(s); got != 0 {
		t.Fatalf("outstanding after over-abandon = %v, want 0", got)
	}
}

// TestLORTwoChoiceBatchAccounting: the outstanding-only rankers move by n.
func TestLORTwoChoiceBatchAccounting(t *testing.T) {
	l := NewLOR(nil, 1)
	l.OnSendN(5, 8, 0)
	if got := l.Outstanding(5); got != 8 {
		t.Fatalf("LOR outstanding = %v, want 8", got)
	}
	l.OnResponseN(5, 3, Feedback{}, time.Millisecond, 1)
	if got := l.Outstanding(5); got != 5 {
		t.Fatalf("LOR outstanding = %v, want 5", got)
	}
	l.OnAbandonN(5, 99, 2)
	if got := l.Outstanding(5); got != 0 {
		t.Fatalf("LOR outstanding after clamp = %v, want 0", got)
	}

	tc := NewTwoChoice(nil, 1)
	tc.OnSendN(2, 4, 0)
	tc.OnAbandonN(2, 4, 1)
	if got := tc.Outstanding(2); got != 0 {
		t.Fatalf("TwoChoice outstanding = %v, want 0", got)
	}
}

// TestClientPickBatchAccountsNConsumesOneToken: the limiter admits a batch as
// one RPC while the ranker sees n keys.
func TestClientPickBatchAccountsNConsumesOneToken(t *testing.T) {
	cfg := ClientConfig{RateControl: true, Rate: ratelimit.Config{InitialRate: 2}}
	ranker := NewCubicRanker(RankerConfig{Seed: 1})
	c := NewClient(ranker, cfg)
	group := []ServerID{1}
	s, ok, _ := c.PickBatch(group, 16, 0)
	if !ok || s != 1 {
		t.Fatalf("PickBatch = (%v, %v)", s, ok)
	}
	if got := c.Outstanding(1); got != 16 {
		t.Fatalf("outstanding after PickBatch(16) = %v, want 16", got)
	}
	// InitialRate 2 → one token left: a 64-key batch still fits (one RPC)…
	if _, ok, _ := c.PickBatch(group, 64, 0); !ok {
		t.Fatal("second PickBatch should consume the second token")
	}
	// …and the third RPC is over rate regardless of size.
	if _, ok, _ := c.PickBatch(group, 1, 0); ok {
		t.Fatal("third PickBatch should be over rate")
	}
	c.OnResponseN(1, 16, Feedback{QueueSize: 1, ServiceTime: time.Millisecond}, time.Millisecond, 1)
	c.OnAbandonN(1, 64, 2)
	if got := c.Outstanding(1); got != 0 {
		t.Fatalf("outstanding after balance = %v, want 0 (zero-residual invariant)", got)
	}
}

// TestRTTRankersWeighBatchFeedback: LRT and WRND fold an n-key response's
// RTT with weight n, as n one-key responses would, and keep no in-flight
// state for OnSendN/OnAbandonN to move.
func TestRTTRankersWeighBatchFeedback(t *testing.T) {
	const n = 8
	const s = ServerID(4)
	smoothedRTT := func(r Ranker) float64 {
		switch r := r.(type) {
		case *LeastResponseTime:
			return r.rt[r.idx(s)].Value()
		case *WeightedRandom:
			return r.rt[r.idx(s)].Value()
		}
		t.Fatalf("%s keeps no smoothed RTT", r.Name())
		return 0
	}
	for _, mk := range []func() Ranker{
		func() Ranker { return NewLeastResponseTime(nil, 0.9, 1) },
		func() Ranker { return NewWeightedRandom(nil, 0.9, 1) },
	} {
		batch := NewClient(mk(), ClientConfig{})
		point := NewClient(mk(), ClientConfig{})
		// Initialize both EWMAs so the weighted fold takes its closed form.
		batch.OnResponse(s, Feedback{}, time.Millisecond, 0)
		point.OnResponse(s, Feedback{}, time.Millisecond, 0)

		batch.OnSendN(s, n, 1)
		batch.OnResponseN(s, n, Feedback{}, 9*time.Millisecond, 2)
		batch.OnAbandonN(s, n, 3) // nothing in flight to release
		for i := 0; i < n; i++ {
			point.OnSendN(s, 1, 1)
			point.OnResponse(s, Feedback{}, 9*time.Millisecond, 2)
		}
		got, want := smoothedRTT(batch.Ranker()), smoothedRTT(point.Ranker())
		if math.Abs(got-want) > 1e-12 || got < 0.008 {
			t.Fatalf("%s: smoothed RTT after an %d-key response = %v, %d one-key responses = %v",
				batch.Name(), n, got, n, want)
		}
	}
}

// TestClientPickHedgeNCountsKeys: a batch hedge duplicates every key it
// carries, so HedgesSent advances by n, and the hedge target excludes the
// already-tried replica.
func TestClientPickHedgeNCountsKeys(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	group := []ServerID{1, 2}
	s, ok, _ := c.PickBatch(group, 4, 0)
	if !ok {
		t.Fatal("PickBatch failed")
	}
	h, ok := c.PickHedgeN(group, []ServerID{s}, 4, 1)
	if !ok || h == s {
		t.Fatalf("PickHedgeN = (%v, %v), want the untried replica", h, ok)
	}
	if got := c.HedgesSent(); got != 4 {
		t.Fatalf("HedgesSent = %d, want 4 (one per duplicated key)", got)
	}
	if got := c.Outstanding(s) + c.Outstanding(h); got != 8 {
		t.Fatalf("total outstanding = %v, want 8", got)
	}
	now := int64(2)
	c.OnResponseN(h, 4, Feedback{}, time.Millisecond, now)
	c.OnAbandonN(s, 4, now)
	if got := c.Outstanding(s) + c.Outstanding(h); got != 0 {
		t.Fatalf("residual = %v, want 0", got)
	}
}

// TestClientPickNextNExhaustsGroup: every group member tried → no pick.
func TestClientPickNextNExhaustsGroup(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	group := []ServerID{1, 2}
	if _, ok := c.PickNextN(group, group, 3, 0); ok {
		t.Fatal("PickNextN with all replicas tried should fail")
	}
	if _, ok := c.PickNextN(group, nil, 0, 0); ok {
		t.Fatal("PickNextN with n=0 should fail")
	}
}
