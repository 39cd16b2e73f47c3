package core

import (
	"math"
	"math/rand/v2"
	"time"

	"c3/internal/ewma"
	"c3/internal/sim"
)

// RankerConfig holds the tunables of the C3 scoring function (§3.1).
type RankerConfig struct {
	// Alpha is the EWMA smoothing factor for the q̄, µ̄ and R̄ signals.
	// The paper does not publish a value; 0.9 (strongly favouring fresh
	// feedback) matches the published C3 Cassandra patch and is the
	// default.
	Alpha float64
	// ConcurrencyWeight is w in q̂ = 1 + os·w + q̄ — the multiplier that
	// extrapolates this client's outstanding requests into an estimate of
	// system-wide in-flight demand. The paper sets w = number of clients.
	// Zero takes the default (1); a negative value disables concurrency
	// compensation entirely (w = 0), used by the ablation experiments.
	ConcurrencyWeight float64
	// Exponent is b in (q̂)^b/µ̄. The paper chooses b = 3 ("cubic
	// replica selection"); the ablation bench sweeps it. The hot path
	// special-cases b = 3 as q̂·q̂·q̂, falling back to math.Pow for the
	// sweeps.
	Exponent float64
	// Seed drives tie-breaking randomness.
	Seed uint64
	// Registry interns server IDs to the dense indices this ranker keys
	// its per-server state by. Substrates share one registry per cluster
	// view; nil creates a private one.
	Registry *Registry
}

func (c RankerConfig) withDefaults() RankerConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.9
	}
	if c.ConcurrencyWeight == 0 {
		c.ConcurrencyWeight = 1
	} else if c.ConcurrencyWeight < 0 {
		c.ConcurrencyWeight = 0
	}
	if c.Exponent <= 0 {
		c.Exponent = 3
	}
	return c
}

// CubicScore evaluates the C3 scoring function
//
//	Ψ = R̄ − T̄ + (q̂)^b · T̄
//
// where R̄ is the smoothed client-observed response time (seconds), T̄ the
// smoothed service time 1/µ̄ (seconds), q̂ the concurrency-compensated
// queue-size estimate and b the queue exponent. Exposed as a pure function so
// experiments (Fig. 4) can plot it directly.
func CubicScore(rbar, tbar, qhat, b float64) float64 {
	return rbar - tbar + math.Pow(qhat, b)*tbar
}

// c3State is the per-server client-side state of the C3 ranker, stored by
// value in a flat slice indexed by the registry's dense index.
type c3State struct {
	outstanding float64
	qbar        ewma.EWMA // queue-size feedback
	tbar        ewma.EWMA // service-time feedback, seconds
	rbar        ewma.EWMA // client-observed response time, seconds
}

// CubicRanker implements C3's replica ranking.
type CubicRanker struct {
	cfg  RankerConfig
	cube bool // Exponent == 3: use q̂·q̂·q̂ instead of math.Pow
	rng  *rand.Rand
	reg  *Registry
	st   []c3State // dense, indexed by reg.Index

	scratch []scored
}

// NewCubicRanker returns a C3 ranker with cfg (zero fields take defaults).
func NewCubicRanker(cfg RankerConfig) *CubicRanker {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	return &CubicRanker{
		cfg:  cfg,
		cube: cfg.Exponent == 3,
		rng:  sim.RNG(cfg.Seed, 0xc3),
		reg:  reg,
	}
}

// Name implements Ranker.
func (c *CubicRanker) Name() string { return "C3" }

// Registry implements RegistryHolder.
func (c *CubicRanker) Registry() *Registry { return c.reg }

// idx interns s and grows the dense state table to cover it.
func (c *CubicRanker) idx(s ServerID) int {
	i := c.reg.Index(s)
	c.st = grown(c.st, i, func() c3State {
		return c3State{
			qbar: ewma.New(c.cfg.Alpha),
			tbar: ewma.New(c.cfg.Alpha),
			rbar: ewma.New(c.cfg.Alpha),
		}
	})
	return i
}

func (c *CubicRanker) state(s ServerID) *c3State {
	i := c.idx(s) // hoisted: idx may grow the slice it indexes
	return &c.st[i]
}

// stateRO is the read-only counterpart of state: it reports nil for servers
// this ranker has never seen, without interning them.
func (c *CubicRanker) stateRO(s ServerID) *c3State {
	if i, ok := c.reg.Lookup(s); ok && i < len(c.st) {
		return &c.st[i]
	}
	return nil
}

// OnSendN implements Ranker: an n-key sub-batch is n outstanding reads.
func (c *CubicRanker) OnSendN(s ServerID, n int, now int64) {
	c.state(s).outstanding += float64(n)
}

// OnResponseN implements Ranker: outstanding drops by the sub-batch size,
// and the single piggybacked feedback sample folds into q̄/T̄/R̄ with weight
// n — the server sampled its state once after serving all n keys, so the
// sample speaks for each of them.
func (c *CubicRanker) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	st := c.state(s)
	st.outstanding = max(st.outstanding-float64(n), 0)
	st.qbar.AddN(fb.QueueSize, n)
	st.tbar.AddN(seconds(fb.ServiceTime), n)
	st.rbar.AddN(seconds(rtt), n)
}

// OnAbandonN implements Ranker: the outstanding count is released, but the
// q̄/T̄/R̄ EWMAs are untouched — an abandoned request observed nothing.
func (c *CubicRanker) OnAbandonN(s ServerID, n int, now int64) {
	if st := c.stateRO(s); st != nil {
		st.outstanding = max(st.outstanding-float64(n), 0)
	}
}

// Outstanding reports the number of requests in flight to s from this client.
// It is a pure read and does not intern s.
func (c *CubicRanker) Outstanding(s ServerID) float64 {
	if st := c.stateRO(s); st != nil {
		return st.outstanding
	}
	return 0
}

// PeerSignals is one replica's ranker-visible state, exported for
// observability: the C3 signals behind Ψ at the moment of the snapshot.
type PeerSignals struct {
	Outstanding float64 // requests in flight from this client
	QHat        float64 // q̂ = 1 + outstanding·w + q̄
	QBar        float64 // EWMA of server-reported queue size
	TBar        float64 // EWMA of server-reported service time, seconds
	RBar        float64 // EWMA of client-observed response time, seconds
	Score       float64 // Ψ (−Inf until the first feedback sample)
	Seen        bool    // false: this ranker never sent to s
}

// SignalsReporter is the optional interface a Ranker implements to expose
// per-server signals for stats snapshots. Callers must hold whatever lock
// guards the ranker (core.Client.Inspect does).
type SignalsReporter interface {
	Signals(s ServerID) PeerSignals
}

// Signals implements SignalsReporter. It is a pure read and does not intern s.
func (c *CubicRanker) Signals(s ServerID) PeerSignals {
	st := c.stateRO(s)
	if st == nil {
		return PeerSignals{QHat: 1, Score: math.Inf(-1)}
	}
	return PeerSignals{
		Outstanding: st.outstanding,
		QHat:        1 + st.outstanding*c.cfg.ConcurrencyWeight + st.qbar.Value(),
		QBar:        st.qbar.Value(),
		TBar:        st.tbar.Value(),
		RBar:        st.rbar.Value(),
		Score:       c.scoreState(st),
		Seen:        true,
	}
}

// scoreState evaluates Ψ for one state entry: the allocation-free inner-loop
// form of CubicScore, with the paper's b = 3 specialized to three multiplies.
func (c *CubicRanker) scoreState(st *c3State) float64 {
	if !st.tbar.Initialized() {
		return math.Inf(-1)
	}
	qhat := 1 + st.outstanding*c.cfg.ConcurrencyWeight + st.qbar.Value()
	tbar := st.tbar.Value()
	var qb float64
	if c.cube {
		qb = qhat * qhat * qhat
	} else {
		qb = math.Pow(qhat, c.cfg.Exponent)
	}
	return st.rbar.Value() - tbar + qb*tbar
}

// Score reports Ψ_s. Servers that have never produced feedback score −Inf so
// that they are explored first. It is a pure read and does not intern s.
func (c *CubicRanker) Score(s ServerID, now int64) float64 {
	st := c.stateRO(s)
	if st == nil {
		return math.Inf(-1)
	}
	return c.scoreState(st)
}

// Rank implements Ranker: ascending Ψ with random tie-breaking (a pre-shuffle
// followed by a stable sort, so equal-score replicas are load-spread rather
// than biased toward low server IDs).
func (c *CubicRanker) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(c.scratch) < len(dst) {
		c.scratch = make([]scored, 0, len(dst))
	}
	sc := c.scratch[:0]
	for _, s := range dst {
		sc = append(sc, scored{s, c.scoreState(c.state(s))})
	}
	rankScored(c.rng, dst, sc)
	return dst
}

// Best implements BestPicker: the minimum-Ψ replica with uniform tie-breaking,
// without sorting.
func (c *CubicRanker) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	bi := bestScored(c.rng, len(group), func(i int) float64 {
		return c.scoreState(c.state(group[i]))
	})
	return group[bi], true
}
