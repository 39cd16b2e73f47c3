package core

import (
	"sync"
	"testing"
	"time"

	"c3/internal/ratelimit"
)

func TestClientWithoutRateControlAlwaysPicks(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	group := []ServerID{1, 2, 3}
	for i := 0; i < 100; i++ {
		s, ok, _ := c.Pick(group, int64(i))
		if !ok {
			t.Fatal("Pick failed without rate control")
		}
		if s < 1 || s > 3 {
			t.Fatalf("picked unknown server %d", s)
		}
	}
}

func TestClientPickEmptyGroup(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	if _, ok, _ := c.Pick(nil, 0); ok {
		t.Fatal("Pick of empty group should fail")
	}
}

func TestClientNilRankerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClient(nil) did not panic")
		}
	}()
	NewClient(nil, ClientConfig{})
}

func TestClientRateControlBlocksAndRecovers(t *testing.T) {
	cfg := ClientConfig{RateControl: true, Rate: ratelimit.Config{InitialRate: 2}}
	c := NewClient(NewRoundRobin(nil), cfg)
	group := []ServerID{1, 2}
	now := int64(0)
	// Burst capacity: 2 tokens per server → 4 picks.
	picks := 0
	for {
		_, ok, _ := c.Pick(group, now)
		if !ok {
			break
		}
		picks++
		if picks > 10 {
			t.Fatal("rate limiter never saturated")
		}
	}
	if picks != 4 {
		t.Fatalf("picks before saturation = %d, want 4", picks)
	}
	_, ok, retryAt := c.Pick(group, now)
	if ok {
		t.Fatal("expected saturation")
	}
	if retryAt <= now {
		t.Fatalf("retryAt = %d, want future", retryAt)
	}
	if _, ok, _ := c.Pick(group, retryAt); !ok {
		t.Fatal("Pick at retryAt should succeed")
	}
}

func TestClientPickTracksOutstanding(t *testing.T) {
	lor := NewLOR(nil, 3)
	c := NewClient(lor, ClientConfig{})
	group := []ServerID{7}
	c.Pick(group, 0)
	if lor.Outstanding(7) != 1 {
		t.Fatalf("outstanding = %v, want 1 (Pick must record the send)", lor.Outstanding(7))
	}
	c.OnResponse(7, Feedback{}, time.Millisecond, 1)
	if lor.Outstanding(7) != 0 {
		t.Fatalf("outstanding = %v, want 0", lor.Outstanding(7))
	}
	c.OnSendN(7, 1, 2) // direct accounting (broadcast path)
	if lor.Outstanding(7) != 1 {
		t.Fatalf("outstanding = %v, want 1 after OnSendN", lor.Outstanding(7))
	}
}

func TestClientSendRateVisibility(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{RateControl: true,
		Rate: ratelimit.Config{InitialRate: 7}})
	if got := c.SendRate(1); got != 7 {
		t.Fatalf("SendRate = %v, want 7", got)
	}
	noRC := NewClient(NewRoundRobin(nil), ClientConfig{})
	if got := noRC.SendRate(1); got <= 1e18 {
		t.Fatalf("SendRate without RC = %v, want +Inf", got)
	}
}

func TestClientConcurrentUse(t *testing.T) {
	c := NewClient(NewCubicRanker(RankerConfig{Seed: 1}),
		ClientConfig{RateControl: true, Rate: ratelimit.Config{InitialRate: 1000}})
	group := []ServerID{1, 2, 3}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				now := int64(g*1000 + i)
				if s, ok, _ := c.Pick(group, now); ok {
					c.OnResponse(s, Feedback{QueueSize: 1, ServiceTime: time.Millisecond},
						2*time.Millisecond, now+1)
				}
			}
		}(g)
	}
	wg.Wait() // run with -race
}

func dispatchAll[T any](g *GroupScheduler[T], now int64) []Dispatch[T] {
	var out []Dispatch[T]
	g.Drain(now, func(s ServerID, item T) { out = append(out, Dispatch[T]{s, item}) })
	return out
}

func TestSchedulerDispatchesImmediatelyUnderRate(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{RateControl: true,
		Rate: ratelimit.Config{InitialRate: 10}})
	g := NewGroupScheduler[int](c, []ServerID{1, 2})
	var got []Dispatch[int]
	n := g.Submit(42, 0, func(s ServerID, it int) { got = append(got, Dispatch[int]{s, it}) })
	if n != 1 || len(got) != 1 || got[0].Item != 42 {
		t.Fatalf("submit result n=%d got=%v", n, got)
	}
	if g.Backlog() != 0 {
		t.Fatalf("backlog = %d, want 0", g.Backlog())
	}
}

func TestSchedulerBackpressureFIFO(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{RateControl: true,
		Rate: ratelimit.Config{InitialRate: 1}})
	g := NewGroupScheduler[int](c, []ServerID{1, 2})
	var order []int
	emit := func(s ServerID, it int) { order = append(order, it) }
	// Burst of 6 at t=0: 2 dispatch (1 token per server), 4 backlog.
	for i := 1; i <= 6; i++ {
		g.Submit(i, 0, emit)
	}
	if len(order) != 2 || g.Backlog() != 4 {
		t.Fatalf("dispatched=%v backlog=%d, want 2 dispatched 4 queued", order, g.Backlog())
	}
	at, ok := g.NextRetry(0)
	if !ok || at <= 0 {
		t.Fatalf("NextRetry = %d,%v", at, ok)
	}
	// Each new window releases 2 more (one per server), FIFO.
	g.Drain(at, emit)
	g.Drain(at+c.limiter(1).Interval(), emit)
	if g.Backlog() != 0 {
		t.Fatalf("backlog = %d after drains", g.Backlog())
	}
	for i, it := range order {
		if it != i+1 {
			t.Fatalf("dispatch order = %v, want FIFO 1..6", order)
		}
	}
	if g.HighWater() != 4 {
		t.Fatalf("high water = %d, want 4", g.HighWater())
	}
	if g.Enqueued() != 6 {
		t.Fatalf("enqueued = %d, want 6", g.Enqueued())
	}
}

func TestSchedulerNextRetryEmptyBacklog(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{RateControl: true,
		Rate: ratelimit.Config{InitialRate: 5}})
	g := NewGroupScheduler[int](c, []ServerID{1})
	if _, ok := g.NextRetry(0); ok {
		t.Fatal("NextRetry with empty backlog should report false")
	}
}

func TestSchedulerNoRateControlNeverQueues(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	g := NewGroupScheduler[int](c, []ServerID{1, 2, 3})
	n := 0
	for i := 0; i < 1000; i++ {
		n += g.Submit(i, int64(i), func(ServerID, int) {})
	}
	if n != 1000 || g.Backlog() != 0 {
		t.Fatalf("dispatched=%d backlog=%d, want all through", n, g.Backlog())
	}
	if _, ok := g.NextRetry(0); ok {
		t.Fatal("NextRetry should be false without rate control")
	}
}

func TestSchedulerEmptyGroupPanics(t *testing.T) {
	c := NewClient(NewLOR(nil, 1), ClientConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("empty group did not panic")
		}
	}()
	NewGroupScheduler[int](c, nil)
}

func TestSchedulerLargeBacklogCompaction(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{RateControl: true,
		Rate: ratelimit.Config{InitialRate: 1, MaxRate: 1}})
	g := NewGroupScheduler[int](c, []ServerID{1})
	emit := func(ServerID, int) {}
	for i := 0; i < 5000; i++ {
		g.Submit(i, 0, emit)
	}
	// Drain over many windows; compaction must keep FIFO intact.
	var got []int
	now := int64(0)
	iv := c.limiter(1).Interval()
	for g.Backlog() > 0 {
		now += iv
		g.Drain(now, func(_ ServerID, it int) { got = append(got, it) })
		if now > iv*20000 {
			t.Fatal("drain did not make progress")
		}
	}
	last := -1
	for _, it := range got {
		if it <= last {
			t.Fatalf("FIFO violated after compaction: %d after %d", it, last)
		}
		last = it
	}
}

func TestDispatchZeroValueReleased(t *testing.T) {
	// Submitting pointers must not leak them after dispatch (slots are
	// zeroed); this is a behavioural proxy: drain all, then internal
	// buffer should be reset.
	c := NewClient(NewLOR(nil, 9), ClientConfig{})
	g := NewGroupScheduler[*int](c, []ServerID{1})
	v := 5
	g.Submit(&v, 0, func(ServerID, *int) {})
	if len(g.backlog) != 0 || g.head != 0 {
		t.Fatalf("backlog not reset after full drain: len=%d head=%d", len(g.backlog), g.head)
	}
}

func TestClientOnAbandonReleasesOutstandingOnly(t *testing.T) {
	ranker := NewCubicRanker(RankerConfig{Seed: 1, ConcurrencyWeight: 4})
	c := NewClient(ranker, ClientConfig{})
	s := ServerID(3)
	c.OnSendN(s, 1, 0)
	c.OnSendN(s, 1, 1)
	if got := c.Outstanding(s); got != 2 {
		t.Fatalf("Outstanding = %v, want 2", got)
	}
	c.OnAbandonN(s, 1, 2)
	if got := c.Outstanding(s); got != 1 {
		t.Fatalf("Outstanding after abandon = %v, want 1", got)
	}
	// The EWMAs saw nothing: the server must still score as unexplored.
	if sc := ranker.Score(s, 3); sc > -1e300 {
		t.Fatalf("abandon fed the score EWMAs: Score = %v, want -Inf", sc)
	}
	c.OnAbandonN(s, 1, 4)
	c.OnAbandonN(s, 1, 5) // below zero must clamp, not wrap
	if got := c.Outstanding(s); got != 0 {
		t.Fatalf("Outstanding after over-abandon = %v, want 0", got)
	}
	// Abandoning a never-seen server must not intern or underflow it.
	c.OnAbandonN(ServerID(99), 1, 6)
	if got := c.Outstanding(ServerID(99)); got != 0 {
		t.Fatalf("Outstanding(unseen) = %v, want 0", got)
	}
}

func TestClientOutstandingWithoutTracker(t *testing.T) {
	c := NewClient(NewRoundRobin(nil), ClientConfig{})
	c.OnSendN(1, 1, 0)
	if got := c.Outstanding(1); got != 0 {
		t.Fatalf("Outstanding on a stateless ranker = %v, want 0", got)
	}
}

func TestClientPickHedgeSkipsTriedReplicas(t *testing.T) {
	lor := NewLOR(nil, 5)
	c := NewClient(lor, ClientConfig{})
	group := []ServerID{1, 2, 3}
	// Load server 1 and 2 so LOR ranks 3 first, then 2, then 1.
	c.OnSendN(1, 2, 0)
	c.OnSendN(2, 1, 0)
	s, ok := c.PickHedgeN(group, []ServerID{3}, 1, 1)
	if !ok || s != 2 {
		t.Fatalf("PickHedgeN excluding {3} = %v,%v, want 2 (next-best)", s, ok)
	}
	if got := lor.Outstanding(2); got != 2 {
		t.Fatalf("PickHedgeN did not record the send: Outstanding(2) = %v", got)
	}
	if got := c.HedgesSent(); got != 1 {
		t.Fatalf("HedgesSent = %d, want 1", got)
	}
	if _, ok := c.PickHedgeN(group, []ServerID{1, 2, 3}, 1, 2); ok {
		t.Fatal("PickHedgeN with the whole group tried should fail")
	}
	if _, ok := c.PickHedgeN(nil, nil, 1, 3); ok {
		t.Fatal("PickHedgeN of empty group should fail")
	}
}

func TestClientPickNextDoesNotCountAsHedge(t *testing.T) {
	// PickNextN is the failover path: same ranked next-untried choice as
	// PickHedgeN, same send accounting, but a failover replaces a dead
	// request rather than duplicating a live one — HedgesSent must not move.
	lor := NewLOR(nil, 6)
	c := NewClient(lor, ClientConfig{})
	group := []ServerID{1, 2}
	s, ok := c.PickNextN(group, []ServerID{1}, 1, 0)
	if !ok || s != 2 {
		t.Fatalf("PickNextN excluding {1} = %v,%v, want 2", s, ok)
	}
	if got := lor.Outstanding(2); got != 1 {
		t.Fatalf("PickNextN did not record the send: Outstanding(2) = %v", got)
	}
	if got := c.HedgesSent(); got != 0 {
		t.Fatalf("HedgesSent after PickNextN = %d, want 0", got)
	}
	if _, ok := c.PickNextN(group, group, 1, 1); ok {
		t.Fatal("PickNextN with the whole group tried should fail")
	}
}

func TestClientPickHedgeConsumesNoRateToken(t *testing.T) {
	cfg := ClientConfig{RateControl: true, Rate: ratelimit.Config{InitialRate: 1, MaxRate: 1}}
	c := NewClient(NewRoundRobin(nil), cfg)
	group := []ServerID{1, 2}
	now := int64(0)
	for {
		if _, ok, _ := c.Pick(group, now); !ok {
			break
		}
	}
	// All limiters exhausted: a hedge must still go out, and must not touch
	// the token state.
	if _, ok := c.PickHedgeN(group, []ServerID{1}, 1, now); !ok {
		t.Fatal("PickHedgeN blocked by rate control")
	}
	if _, ok, _ := c.Pick(group, now); ok {
		t.Fatal("PickHedgeN minted a rate token")
	}
}

func TestClientPickBestIgnoresRateTokens(t *testing.T) {
	// PickBestN is the backpressure fail-open path: it must return a ranked
	// replica even when every limiter is exhausted, and must not consume or
	// restore tokens.
	cfg := ClientConfig{RateControl: true, Rate: ratelimit.Config{InitialRate: 2}}
	c := NewClient(NewRoundRobin(nil), cfg)
	group := []ServerID{1, 2}
	now := int64(0)
	for {
		if _, ok, _ := c.Pick(group, now); !ok {
			break
		}
	}
	seen := map[ServerID]bool{}
	for i := 0; i < 10; i++ {
		s, ok := c.PickBestN(group, 1, now)
		if !ok {
			t.Fatal("PickBestN failed on a non-empty group")
		}
		if s != 1 && s != 2 {
			t.Fatalf("PickBestN returned unknown server %d", s)
		}
		seen[s] = true
	}
	// Round-robin ranking: fail-open traffic spreads across the group
	// instead of piling onto one member.
	if len(seen) != 2 {
		t.Fatalf("PickBestN used %d servers, want 2", len(seen))
	}
	// Tokens stayed exhausted throughout.
	if _, ok, _ := c.Pick(group, now); ok {
		t.Fatal("PickBestN leaked a rate token")
	}
	if _, ok := c.PickBestN(nil, 1, now); ok {
		t.Fatal("PickBestN of empty group should fail")
	}
}
