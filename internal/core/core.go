// Package core implements the C3 replica-selection algorithm (NSDI'15):
// cubic replica ranking driven by piggybacked server feedback, per-server
// cubic rate control, and replica-group backpressure scheduling. It also
// implements every baseline the paper evaluates against — least-outstanding
// requests (LOR), rate-limited round-robin (RR), an oracle, Cassandra-style
// Dynamic Snitching, and the "did not fare well" §6 extras (uniform random,
// least-response-time, weighted random, power-of-two-choices).
//
// The package is deliberately substrate-neutral: nothing here reads a wall
// clock, sleeps, or spawns goroutines. Every method takes an explicit
// timestamp (int64 nanoseconds), so the identical code runs inside the
// discrete-event simulators (internal/queuesim, internal/cassim) and inside
// the live TCP key-value store (internal/kvstore).
package core

import (
	"math/rand/v2"
	"time"
)

// ServerID identifies a replica server within a cluster.
type ServerID int32

// Feedback is the per-response server feedback that C3 piggybacks on every
// reply (§3.1): the server's queue size sampled as the response is
// dispatched, and the service time of the request.
type Feedback struct {
	// QueueSize is the number of requests pending at the server when the
	// response was sent.
	QueueSize float64
	// ServiceTime is how long the server spent serving the request.
	ServiceTime time.Duration
}

// Ranker orders the replicas of a group by preference. Implementations keep
// per-server client-side state (EWMAs, outstanding counts, histories) and are
// not safe for concurrent use; Client adds locking for multi-goroutine
// substrates.
//
// Every event carries the number of keys n ≥ 1 it stands for. A point
// request is n = 1; a replica holding a 32-key sub-batch is truthfully 32
// reads of in-flight demand, and the single feedback sample piggybacked on
// its response describes the cost of all 32 — so outstanding accounting
// moves by n and the feedback estimators fold the sample in with weight n.
type Ranker interface {
	// Name identifies the strategy in experiment output ("C3", "LOR", ...).
	Name() string
	// Rank writes group into dst in preference order (best first) and
	// returns dst[:len(group)]. dst must not alias group and must have
	// capacity ≥ len(group); pass nil to allocate.
	Rank(dst, group []ServerID, now int64) []ServerID
	// OnSendN records a dispatch of n keys to s at time now.
	OnSendN(s ServerID, n int, now int64)
	// OnResponseN records an n-key response from s carrying feedback fb,
	// observed after round-trip time rtt, at time now: outstanding
	// accounting drops by n and fb folds into the estimators with weight n.
	OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64)
	// OnAbandonN records that n keys previously recorded with OnSendN will
	// never produce an observable response — cancelled, timed out locally,
	// or their connection died before the reply. Implementations release
	// outstanding-request accounting for s without feeding their latency or
	// queue estimators: an abandoned request carries no server feedback,
	// and synthesizing one from the client's own timeout would poison the
	// EWMAs. Strategies that keep no in-flight state no-op.
	OnAbandonN(s ServerID, n int, now int64)
}

// BestPicker is an optional fast path a Ranker may implement: Best returns
// the replica Rank would place first — with the same tie-breaking
// distribution — without materializing the full ordering. Client.Pick uses it
// to skip sorting entirely in the common case where the top replica is within
// its send rate.
type BestPicker interface {
	Best(group []ServerID, now int64) (s ServerID, ok bool)
}

// RegistryHolder is implemented by rankers that key per-server state by a
// Registry's dense indices. Client shares the ranker's registry for its
// limiter table so both sides agree on indices.
type RegistryHolder interface {
	Registry() *Registry
}

// OutstandingTracker is implemented by rankers that count in-flight requests
// per server (CubicRanker, LOR, TwoChoice). Client.Outstanding uses it to
// expose the accounting invariant — after every request completes or is
// abandoned, each server's count must return to zero — to failure-scenario
// tests and the tail benchmark's drift check.
type OutstandingTracker interface {
	Outstanding(s ServerID) float64
}

// prepare copies group into dst, allocating if needed.
func prepare(dst, group []ServerID) []ServerID {
	if cap(dst) < len(group) {
		dst = make([]ServerID, len(group))
	}
	dst = dst[:len(group)]
	copy(dst, group)
	return dst
}

// seconds converts a duration to float64 seconds.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// scored pairs a server with its score inside ranking scratch buffers.
type scored struct {
	s     ServerID
	score float64
}

// shuffleScored Fisher–Yates-shuffles sc so that a following stable sort
// breaks score ties uniformly at random.
func shuffleScored(r *rand.Rand, sc []scored) {
	for i := len(sc) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		sc[i], sc[j] = sc[j], sc[i]
	}
}

// insertionSortScored stably sorts sc by ascending score, in place. Replica
// groups are replication-factor sized (≤ a handful), where insertion sort
// beats the generic sort by a wide margin and allocates nothing.
func insertionSortScored(sc []scored) {
	for i := 1; i < len(sc); i++ {
		x := sc[i]
		j := i - 1
		for j >= 0 && sc[j].score > x.score {
			sc[j+1] = sc[j]
			j--
		}
		sc[j+1] = x
	}
}

// rankScored applies the shared ordering pipeline — random tie-break shuffle,
// stable in-place sort — and writes the resulting server order into dst.
func rankScored(r *rand.Rand, dst []ServerID, sc []scored) {
	shuffleScored(r, sc)
	insertionSortScored(sc)
	for i := range sc {
		dst[i] = sc[i].s
	}
}

// grown extends sl so that index i is valid, filling new slots with mk's
// value (nil mk fills zero values) — the growth step of every dense
// registry-indexed state table. Steady state (i already covered) is a single
// length check.
func grown[T any](sl []T, i int, mk func() T) []T {
	for len(sl) <= i {
		var v T
		if mk != nil {
			v = mk()
		}
		sl = append(sl, v)
	}
	return sl
}

// bestScored returns the index of the minimum-score entry among the first n
// scores produced by score(i), breaking ties uniformly at random — the same
// tie distribution as shuffle + stable sort, at O(n) with no scratch.
func bestScored(r *rand.Rand, n int, score func(int) float64) int {
	bi := 0
	bs := score(0)
	ties := 1
	for i := 1; i < n; i++ {
		s := score(i)
		switch {
		case s < bs:
			bi, bs, ties = i, s, 1
		case s == bs:
			ties++
			if r.IntN(ties) == 0 {
				bi = i
			}
		}
	}
	return bi
}
