package core

import (
	"math"
	"slices"
	"sync"
	"time"

	"c3/internal/ratelimit"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// RateControl enables the per-server cubic rate limiters and
	// backpressure (§3.2). C3 and the RR baseline run with it on; LOR and
	// the oracle run with it off.
	RateControl bool
	// Rate configures the limiters (zero fields take the paper defaults).
	Rate ratelimit.Config
}

// Client combines a replica Ranker with optional per-server rate control —
// the complete client side of C3 (Algorithm 1). It is safe for concurrent
// use; under the single-threaded simulators the lock is uncontended.
type Client struct {
	mu      sync.Mutex
	ranker  Ranker
	best    BestPicker         // cached type assertion of ranker; nil if unsupported
	tracker OutstandingTracker // cached type assertion of ranker; nil if unsupported
	cfg     ClientConfig
	reg     *Registry          // shared with the ranker when it holds one
	rc      []*ratelimit.Cubic // dense, indexed by reg.Index

	hedges uint64 // keys duplicated by PickHedgeN

	scratch []ServerID
}

// NewClient returns a Client driving the given ranker. When the ranker keys
// its state by a Registry (RegistryHolder), the client's limiter table shares
// the same registry so both sides agree on dense indices.
func NewClient(r Ranker, cfg ClientConfig) *Client {
	if r == nil {
		panic("core: nil ranker")
	}
	c := &Client{ranker: r, cfg: cfg}
	if bp, ok := r.(BestPicker); ok {
		c.best = bp
	}
	if ot, ok := r.(OutstandingTracker); ok {
		c.tracker = ot
	}
	if cfg.RateControl {
		if rh, ok := r.(RegistryHolder); ok {
			c.reg = rh.Registry()
		} else {
			c.reg = NewRegistry()
		}
	}
	return c
}

// Name reports the underlying strategy name.
func (c *Client) Name() string { return c.ranker.Name() }

// Ranker exposes the underlying ranker (for substrate glue such as gossip
// feeding a DynamicSnitch).
func (c *Client) Ranker() Ranker { return c.ranker }

// Inspect runs f on the underlying ranker while holding the client's lock —
// the race-safe way for diagnostics and tests to read ranker state (scores,
// queue estimates) concurrently with live traffic. f must not call back into
// the client.
func (c *Client) Inspect(f func(Ranker)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c.ranker)
}

func (c *Client) limiter(s ServerID) *ratelimit.Cubic {
	i := c.reg.Index(s)
	c.rc = grown(c.rc, i, nil)
	l := c.rc[i]
	if l == nil {
		l = ratelimit.New(c.cfg.Rate)
		c.rc[i] = l
	}
	return l
}

// Pick is PickBatch for a single key — the point request of Algorithm 1.
func (c *Client) Pick(group []ServerID, now int64) (s ServerID, ok bool, retryAt int64) {
	return c.PickBatch(group, 1, now)
}

// PickBatch ranks the replica group and reserves the best replica that is
// within its send rate for an n-key request: the token is consumed and the
// send of n keys is recorded with the ranker. The rate limiter admits the
// request as one RPC (the cubic limiter paces RPCs, and a coalesced batch is
// one RPC — that is the point of batching), while the ranker's outstanding
// accounting moves by n so the selection signal still sees every key the
// replica now holds. When every replica is over rate, ok is false and
// retryAt is the earliest time a token will free up — the caller should
// backpressure until then (GroupScheduler does this bookkeeping).
//
// Without rate control, PickBatch always succeeds with the top-ranked
// replica. Every successful PickBatch must be balanced by one OnResponseN or
// OnAbandonN of the same n.
func (c *Client) PickBatch(group []ServerID, n int, now int64) (s ServerID, ok bool, retryAt int64) {
	return c.pick(group, n, now, c.cfg.RateControl)
}

// pick is PickBatch with rate control on or off for this one call.
func (c *Client) pick(group []ServerID, n int, now int64, rated bool) (s ServerID, ok bool, retryAt int64) {
	if len(group) == 0 || n <= 0 {
		return 0, false, now
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Top-1 fast path: the full ordering is only needed when the best
	// replica is over its send rate.
	if c.best != nil {
		if b, bok := c.best.Best(group, now); bok {
			if !rated || c.limiter(b).TryAcquire(now) {
				c.ranker.OnSendN(b, n, now)
				return b, true, now
			}
		}
	}
	c.scratch = c.ranker.Rank(c.scratch, group, now)
	if !rated {
		s = c.scratch[0]
		c.ranker.OnSendN(s, n, now)
		return s, true, now
	}
	// One pass: try each replica in preference order, accumulating the
	// earliest token availability so an all-over-rate outcome needs no
	// second walk.
	retryAt = int64(math.MaxInt64)
	for _, cand := range c.scratch {
		l := c.limiter(cand)
		if l.TryAcquire(now) {
			c.ranker.OnSendN(cand, n, now)
			return cand, true, now
		}
		if at := l.NextAvailable(now); at < retryAt {
			retryAt = at
		}
	}
	if retryAt <= now {
		retryAt = now + 1
	}
	return 0, false, retryAt
}

// PickBestN ranks the group and records an n-key send to the best replica
// without consuming a rate token — the coordinator's fail-open path once its
// backpressure deadline expires. The choice still follows the ranker, so
// timeout traffic spreads by replica quality instead of piling onto a fixed
// group member. ok is false only for an empty group or non-positive n.
func (c *Client) PickBestN(group []ServerID, n int, now int64) (s ServerID, ok bool) {
	s, ok, _ = c.pick(group, n, now, false)
	return s, ok
}

// OnSendN records n keys dispatched to s outside of PickBatch — e.g. the
// extra replicas of a read-repair broadcast, a write fan-out or a hint
// replay. It updates outstanding-request accounting but consumes no rate
// token.
func (c *Client) OnSendN(s ServerID, n int, now int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ranker.OnSendN(s, n, now)
}

// OnResponse is OnResponseN for a single key.
func (c *Client) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	c.OnResponseN(s, 1, fb, rtt, now)
}

// OnResponseN records an n-key response from s: outstanding accounting
// drops by n and the single piggybacked feedback sample folds into the
// ranker's estimators with weight n (an n-key sub-batch's response carries
// as much evidence as n point responses). Rate adaptation steps once for s —
// the response is one RPC.
func (c *Client) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ranker.OnResponseN(s, n, fb, rtt, now)
	if c.cfg.RateControl {
		c.limiter(s).OnResponse(now)
	}
}

// OnAbandonN records that n keys sent to s will never produce an
// observable response: the request was cancelled, its deadline expired
// locally, or its connection died before the reply. Outstanding-request
// accounting toward s is released; the ranker's latency and queue
// estimators are untouched (there is no feedback to feed), and no
// rate-adaptation step runs (no response arrived). Every n recorded by
// PickBatch, PickBestN, PickNextN, PickHedgeN or OnSendN must be balanced by
// exactly one OnResponseN or OnAbandonN of the same n, or q̂ inflates
// permanently — the accounting invariant the failure-scenario tests assert
// through Outstanding.
func (c *Client) OnAbandonN(s ServerID, n int, now int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ranker.OnAbandonN(s, n, now)
}

// PickNextN chooses the best-ranked replica of group not in exclude and
// records an n-key send (no rate token). It is the failure path's walk
// order: each failed replica joins exclude and PickNextN yields the
// next-best, so failover traffic still follows (and trains) the ranker
// instead of a fixed group order. ok is false when every group member has
// been tried already, or for non-positive n.
func (c *Client) PickNextN(group, exclude []ServerID, n int, now int64) (s ServerID, ok bool) {
	if n <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pickNextLocked(group, exclude, n, now)
}

// PickHedgeN is PickNextN for a speculative duplicate of an n-key request
// still in flight: the same ranked next-untried choice, counted as n hedged
// keys — duplicate load is measured in keys, and a batch hedge re-reads
// every key it carries. Hedges consume no rate token: they are latency-bound
// duplicates of a request the rate controller already admitted, not new
// offered load, and rate adaptation still observes their responses. Use
// PickNextN for failovers after an error — a failover replaces a dead
// request rather than duplicating a live one, and must not inflate
// HedgesSent.
func (c *Client) PickHedgeN(group, exclude []ServerID, n int, now int64) (s ServerID, ok bool) {
	if n <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok = c.pickNextLocked(group, exclude, n, now)
	if ok {
		c.hedges += uint64(n)
	}
	return s, ok
}

// HedgesSent reports the number of keys duplicated by PickHedgeN.
func (c *Client) HedgesSent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hedges
}

func (c *Client) pickNextLocked(group, exclude []ServerID, n int, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	c.scratch = c.ranker.Rank(c.scratch, group, now)
	for _, cand := range c.scratch {
		if slices.Contains(exclude, cand) {
			continue
		}
		c.ranker.OnSendN(cand, n, now)
		return cand, true
	}
	return 0, false
}

// Outstanding reports the ranker's in-flight count toward s, or 0 when the
// strategy keeps no such state. After a request completes or is abandoned the
// count must return to its prior value; failure-scenario tests assert the
// quiescent total is zero.
func (c *Client) Outstanding(s ServerID) float64 {
	if c.tracker == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracker.Outstanding(s)
}

// SendRate reports the current srate toward s (requests per δ), or +Inf when
// rate control is disabled. Used by the Fig. 13 trace.
func (c *Client) SendRate(s ServerID) float64 {
	if !c.cfg.RateControl {
		return math.Inf(1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limiter(s).Rate()
}

// ReceiveRate reports the last measured rrate from s (responses per δ).
func (c *Client) ReceiveRate(s ServerID, now int64) float64 {
	if !c.cfg.RateControl {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limiter(s).ReceiveRate(now)
}

// Dispatch is one backlog item released to a server.
type Dispatch[T any] struct {
	Server ServerID
	Item   T
}

// GroupScheduler is the per-replica-group scheduler of Algorithm 1: requests
// that cannot be sent because all replicas exceed their rate wait in a FIFO
// backlog until a limiter frees up. In the Cassandra implementation this is
// the per-replica-group actor; here it is a deterministic queue the substrate
// drives (a sim event or a goroutine timer wakes it at NextRetry).
type GroupScheduler[T any] struct {
	c     *Client
	group []ServerID

	backlog   []T
	head      int
	highWater int
	enqueued  uint64
}

// NewGroupScheduler returns a scheduler for one replica group.
func NewGroupScheduler[T any](c *Client, group []ServerID) *GroupScheduler[T] {
	if len(group) == 0 {
		panic("core: empty replica group")
	}
	g := make([]ServerID, len(group))
	copy(g, group)
	return &GroupScheduler[T]{c: c, group: g}
}

// Group reports the scheduler's replica group (callers must not modify it).
func (g *GroupScheduler[T]) Group() []ServerID { return g.group }

// Submit enqueues item and immediately dispatches as much of the backlog as
// rates permit, calling emit for each released (server, item) pair in FIFO
// order. It reports the number of items dispatched.
func (g *GroupScheduler[T]) Submit(item T, now int64, emit func(ServerID, T)) int {
	g.backlog = append(g.backlog, item)
	g.enqueued++
	if n := g.Backlog(); n > g.highWater {
		g.highWater = n
	}
	return g.Drain(now, emit)
}

// Drain dispatches backlogged items while some replica is within rate,
// preserving FIFO order, and reports how many were dispatched.
func (g *GroupScheduler[T]) Drain(now int64, emit func(ServerID, T)) int {
	n := 0
	for g.head < len(g.backlog) {
		s, ok, _ := g.c.Pick(g.group, now)
		if !ok {
			break
		}
		item := g.backlog[g.head]
		var zero T
		g.backlog[g.head] = zero // release references promptly
		g.head++
		n++
		emit(s, item)
	}
	if g.head == len(g.backlog) && g.head > 0 {
		g.backlog = g.backlog[:0]
		g.head = 0
	} else if g.head > 1024 && g.head*2 > len(g.backlog) {
		m := copy(g.backlog, g.backlog[g.head:])
		g.backlog = g.backlog[:m]
		g.head = 0
	}
	return n
}

// Backlog reports the number of items waiting.
func (g *GroupScheduler[T]) Backlog() int { return len(g.backlog) - g.head }

// HighWater reports the maximum backlog length observed.
func (g *GroupScheduler[T]) HighWater() int { return g.highWater }

// Enqueued reports the total number of items ever submitted.
func (g *GroupScheduler[T]) Enqueued() uint64 { return g.enqueued }

// NextRetry reports when to attempt the next Drain: the earliest time any
// replica's limiter will have a token. ok is false when the backlog is empty
// (nothing to retry) or rate control is off (Drain never blocks).
func (g *GroupScheduler[T]) NextRetry(now int64) (at int64, ok bool) {
	if g.Backlog() == 0 || !g.c.cfg.RateControl {
		return 0, false
	}
	_, picked, retryAt := g.c.peekRetry(g.group, now)
	if picked {
		// A token became available between Drain and NextRetry; retry
		// immediately.
		return now, true
	}
	return retryAt, true
}

// peekRetry reports whether any replica currently has a token (without
// consuming it) and, if not, the earliest availability time.
func (c *Client) peekRetry(group []ServerID, now int64) (ServerID, bool, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	retryAt := int64(math.MaxInt64)
	for _, s := range group {
		l := c.limiter(s)
		at := l.NextAvailable(now)
		if at <= now {
			return s, true, now
		}
		if at < retryAt {
			retryAt = at
		}
	}
	return 0, false, retryAt
}
