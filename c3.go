// Package c3 is an implementation of C3 — the adaptive replica selection
// mechanism of Suresh, Canini, Schmid and Feldmann, "C3: Cutting Tail
// Latency in Cloud Data Stores via Adaptive Replica Selection" (NSDI 2015) —
// as a reusable Go library, together with every baseline the paper evaluates
// against.
//
// C3 reduces tail latency in replicated data stores by combining two
// client-side mechanisms:
//
//   - Replica ranking: servers piggyback their queue size and service time
//     on every response; clients score each replica with the cubic function
//     Ψ = R̄ − 1/µ̄ + q̂³/µ̄, where q̂ compensates for the client's own
//     outstanding requests, and prefer the lowest score.
//   - Cubic rate control with backpressure: per-server token buckets whose
//     rates adapt with a CUBIC-style law; requests wait in a per-replica-
//     group backlog when every replica is over its rate.
//
// # Quick start
//
// Embed a Client in your driver or coordinator. On each request, Pick a
// replica from the key's replica group; after each response, feed back the
// server-reported queue size and service time:
//
//	ranker := c3.NewRanker(c3.RankerConfig{ConcurrencyWeight: numClients})
//	client := c3.New(ranker, c3.ClientConfig{RateControl: true})
//
//	server, ok, retryAt := client.Pick(replicas, time.Now().UnixNano())
//	if !ok {
//	    // all replicas over rate: backpressure until retryAt
//	}
//	// ... send to server, on response:
//	client.OnResponse(server, c3.Feedback{
//	    QueueSize:   resp.QueueSize,
//	    ServiceTime: resp.ServiceTime,
//	}, rtt, time.Now().UnixNano())
//
// A request that is cancelled, times out locally, or loses its connection
// before the reply must release its accounting with Client.OnAbandon — never
// synthesize feedback for it. Speculative (hedged) duplicates are recorded
// with Client.PickHedge / Client.OnHedge, which skip the rate controller:
// a hedge duplicates a request it already admitted. Every send must be
// balanced by exactly one OnResponse or OnAbandon, or the outstanding-
// request term of q̂ drifts; Client.Outstanding exposes the count for
// invariant checks.
//
// Everything is driven by explicit timestamps, so the same client runs under
// simulated or wall-clock time. See examples/ for runnable programs,
// DESIGN.md for the design, and cmd/c3bench for the paper reproduction.
package c3

import (
	"c3/internal/core"
	"c3/internal/ratelimit"
)

// ServerID identifies a replica server.
type ServerID = core.ServerID

// Feedback is the per-response server feedback (queue size and service
// time) that drives the ranking.
type Feedback = core.Feedback

// Ranker orders the replicas of a group by preference. The package provides
// the C3 cubic ranker plus every baseline from the paper.
type Ranker = core.Ranker

// RankerConfig tunes the C3 scoring function (EWMA smoothing, concurrency
// weight w, queue exponent b) and optionally names the shared Registry.
type RankerConfig = core.RankerConfig

// Registry interns server IDs to dense indices so rankers and clients keep
// per-server state in flat slices instead of maps. Processes that run many
// clients against one cluster view should construct a single Registry,
// pre-register every server, and share it via RankerConfig.Registry.
type Registry = core.Registry

// CubicRanker is the C3 replica ranking implementation.
type CubicRanker = core.CubicRanker

// Client combines a Ranker with optional per-server cubic rate control: the
// complete client side of C3. Safe for concurrent use.
type Client = core.Client

// ClientConfig configures a Client.
type ClientConfig = core.ClientConfig

// RateConfig tunes the cubic rate controller (δ, β, γ, smax, hysteresis).
type RateConfig = ratelimit.Config

// GroupScheduler provides FIFO backpressure queueing for one replica group
// (Algorithm 1's backlog queue), parameterized by the request payload type.
type GroupScheduler[T any] = core.GroupScheduler[T]

// Dispatch is one (server, item) release from a GroupScheduler.
type Dispatch[T any] = core.Dispatch[T]

// OracleFn exposes instantaneous server state to the Oracle baseline.
type OracleFn = core.OracleFn

// SnitchConfig tunes the Dynamic Snitching baseline.
type SnitchConfig = core.SnitchConfig

// New returns a Client driving the given ranker. Enable
// ClientConfig.RateControl for full C3 (ranking + rate control +
// backpressure); leave it off to use the ranking alone.
func New(r Ranker, cfg ClientConfig) *Client { return core.NewClient(r, cfg) }

// NewRanker returns the C3 cubic ranker. Set ConcurrencyWeight to the number
// of clients performing selection against the same servers (the paper's w).
func NewRanker(cfg RankerConfig) *CubicRanker { return core.NewCubicRanker(cfg) }

// NewRegistry returns a registry with ids pre-interned in argument order.
func NewRegistry(ids ...ServerID) *Registry { return core.NewRegistry(ids...) }

// NewScheduler returns a backpressure scheduler for one replica group.
func NewScheduler[T any](c *Client, group []ServerID) *GroupScheduler[T] {
	return core.NewGroupScheduler[T](c, group)
}

// CubicScore evaluates the raw C3 scoring function Ψ = R̄ − T̄ + q̂^b·T̄
// (times in seconds).
func CubicScore(rbar, tbar, qhat, b float64) float64 {
	return core.CubicScore(rbar, tbar, qhat, b)
}

// DefaultRateConfig returns the paper's §4 rate-controller parameters
// (δ=20 ms, β=0.2, smax=10, hysteresis 2δ, γ tuned for a 100 ms saddle).
func DefaultRateConfig() RateConfig { return ratelimit.DefaultConfig() }

// Baseline selection strategies evaluated by the paper.

// NewLOR returns the least-outstanding-requests baseline.
func NewLOR(seed uint64) Ranker { return core.NewLOR(nil, seed) }

// NewRoundRobin returns the round-robin baseline (combine with rate control
// for the paper's "RR" configuration).
func NewRoundRobin() Ranker { return core.NewRoundRobin(nil) }

// NewRandom returns the uniform random baseline.
func NewRandom(seed uint64) Ranker { return core.NewRandom(seed) }

// NewTwoChoice returns the power-of-two-choices baseline.
func NewTwoChoice(seed uint64) Ranker { return core.NewTwoChoice(nil, seed) }

// NewLeastResponseTime returns the least-smoothed-RTT baseline.
func NewLeastResponseTime(alpha float64, seed uint64) Ranker {
	return core.NewLeastResponseTime(nil, alpha, seed)
}

// NewWeightedRandom returns the inverse-RTT weighted random baseline.
func NewWeightedRandom(alpha float64, seed uint64) Ranker {
	return core.NewWeightedRandom(nil, alpha, seed)
}

// NewOracle returns the perfect-information baseline (simulations only).
func NewOracle(fn OracleFn, seed uint64) Ranker { return core.NewOracle(fn, seed) }

// NewDynamicSnitch returns a model of Cassandra's Dynamic Snitching, the
// paper's §5 baseline.
func NewDynamicSnitch(cfg SnitchConfig) *core.DynamicSnitch {
	return core.NewDynamicSnitch(cfg)
}
