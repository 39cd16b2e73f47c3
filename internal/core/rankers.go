package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"c3/internal/ewma"
	"c3/internal/sim"
)

// LOR is the least-outstanding-requests strategy (§2.2): each client prefers
// the server to which it currently has the fewest requests in flight. It is
// what Nginx/ELB-style load balancers do and is the primary baseline in the
// paper's simulations.
type LOR struct {
	rng         *rand.Rand
	reg         *Registry
	outstanding []float64 // dense, indexed by reg.Index
	scratch     []scored
}

// NewLOR returns a LOR ranker seeded for tie-breaking. A nil registry
// creates a private one.
func NewLOR(reg *Registry, seed uint64) *LOR {
	if reg == nil {
		reg = NewRegistry()
	}
	return &LOR{rng: sim.RNG(seed, 0x10f), reg: reg}
}

// Name implements Ranker.
func (l *LOR) Name() string { return "LOR" }

// Registry implements RegistryHolder.
func (l *LOR) Registry() *Registry { return l.reg }

func (l *LOR) idx(s ServerID) int {
	i := l.reg.Index(s)
	l.outstanding = grown(l.outstanding, i, nil)
	return i
}

// OnSendN implements Ranker.
func (l *LOR) OnSendN(s ServerID, n int, now int64) {
	i := l.idx(s) // hoisted: idx may grow the slice it indexes
	l.outstanding[i] += float64(n)
}

// OnResponseN implements Ranker (the outstanding count is LOR's only state,
// so response and abandon coincide).
func (l *LOR) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	l.OnAbandonN(s, n, now)
}

// OnAbandonN implements Ranker.
func (l *LOR) OnAbandonN(s ServerID, n int, now int64) {
	i := l.idx(s)
	l.outstanding[i] = max(l.outstanding[i]-float64(n), 0)
}

// Outstanding reports this client's in-flight count toward s. It is a pure
// read: unknown servers report 0 without being interned.
func (l *LOR) Outstanding(s ServerID) float64 {
	if i, ok := l.reg.Lookup(s); ok && i < len(l.outstanding) {
		return l.outstanding[i]
	}
	return 0
}

// Rank implements Ranker: ascending outstanding count, random ties.
func (l *LOR) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(l.scratch) < len(dst) {
		l.scratch = make([]scored, 0, len(dst))
	}
	sc := l.scratch[:0]
	for _, s := range dst {
		i := l.idx(s)
		sc = append(sc, scored{s, l.outstanding[i]})
	}
	rankScored(l.rng, dst, sc)
	return dst
}

// Best implements BestPicker: the fewest-outstanding replica, uniform ties.
func (l *LOR) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	bi := bestScored(l.rng, len(group), func(i int) float64 {
		j := l.idx(group[i])
		return l.outstanding[j]
	})
	return group[bi], true
}

// RoundRobin rotates through each replica group's members in turn. Combined
// with rate control in a Client, it is the paper's "RR" baseline (§6), used
// to isolate the contribution of rate limiting from that of ranking.
type RoundRobin struct {
	reg  *Registry
	next []int // dense, indexed by reg.GroupIndex
}

// NewRoundRobin returns a RoundRobin ranker. A nil registry creates a
// private one.
func NewRoundRobin(reg *Registry) *RoundRobin {
	if reg == nil {
		reg = NewRegistry()
	}
	return &RoundRobin{reg: reg}
}

// Name implements Ranker.
func (r *RoundRobin) Name() string { return "RR" }

// Registry implements RegistryHolder.
func (r *RoundRobin) Registry() *Registry { return r.reg }

// OnSendN implements Ranker.
func (r *RoundRobin) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker.
func (r *RoundRobin) OnResponseN(ServerID, int, Feedback, time.Duration, int64) {}

// OnAbandonN implements Ranker (no in-flight state).
func (r *RoundRobin) OnAbandonN(ServerID, int, int64) {}

// Rank implements Ranker: the group rotated by a per-group counter. The group
// is interned once by the registry; steady-state calls do no hashing of
// string keys and no allocation.
func (r *RoundRobin) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if len(dst) == 0 {
		return dst
	}
	g := r.reg.GroupIndex(group)
	r.next = grown(r.next, g, nil)
	off := r.next[g] % len(dst)
	r.next[g] = off + 1
	rotate(dst, off)
	return dst
}

// rotate rotates xs left by off positions in place (three-reversal trick).
func rotate(xs []ServerID, off int) {
	if off <= 0 || off >= len(xs) {
		return
	}
	slices.Reverse(xs[:off])
	slices.Reverse(xs[off:])
	slices.Reverse(xs)
}

// Random is the uniform random strategy (evaluated and dismissed in §6).
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random ranker.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.RNG(seed, 0xa11d)} }

// Name implements Ranker.
func (r *Random) Name() string { return "RND" }

// OnSendN implements Ranker.
func (r *Random) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker.
func (r *Random) OnResponseN(ServerID, int, Feedback, time.Duration, int64) {}

// OnAbandonN implements Ranker (no in-flight state).
func (r *Random) OnAbandonN(ServerID, int, int64) {}

// Rank implements Ranker: a uniform shuffle.
func (r *Random) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	for i := len(dst) - 1; i > 0; i-- {
		j := r.rng.IntN(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Best implements BestPicker: one uniform draw.
func (r *Random) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	return group[r.rng.IntN(len(group))], true
}

// TwoChoice implements the power-of-two-choices strategy (Mitzenmacher,
// discussed in §8): sample two random replicas and prefer the one with fewer
// outstanding requests.
type TwoChoice struct {
	rng         *rand.Rand
	reg         *Registry
	outstanding []float64 // dense, indexed by reg.Index
}

// NewTwoChoice returns a TwoChoice ranker. A nil registry creates a private
// one.
func NewTwoChoice(reg *Registry, seed uint64) *TwoChoice {
	if reg == nil {
		reg = NewRegistry()
	}
	return &TwoChoice{rng: sim.RNG(seed, 0x2c), reg: reg}
}

// Name implements Ranker.
func (t *TwoChoice) Name() string { return "2C" }

// Registry implements RegistryHolder.
func (t *TwoChoice) Registry() *Registry { return t.reg }

func (t *TwoChoice) idx(s ServerID) int {
	i := t.reg.Index(s)
	t.outstanding = grown(t.outstanding, i, nil)
	return i
}

// OnSendN implements Ranker.
func (t *TwoChoice) OnSendN(s ServerID, n int, now int64) {
	i := t.idx(s) // hoisted: idx may grow the slice it indexes
	t.outstanding[i] += float64(n)
}

// OnResponseN implements Ranker (the outstanding count is TwoChoice's only
// state, so response and abandon coincide).
func (t *TwoChoice) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	t.OnAbandonN(s, n, now)
}

// OnAbandonN implements Ranker.
func (t *TwoChoice) OnAbandonN(s ServerID, n int, now int64) {
	i := t.idx(s)
	t.outstanding[i] = max(t.outstanding[i]-float64(n), 0)
}

// Outstanding reports this client's in-flight count toward s. It is a pure
// read: unknown servers report 0 without being interned.
func (t *TwoChoice) Outstanding(s ServerID) float64 {
	if i, ok := t.reg.Lookup(s); ok && i < len(t.outstanding) {
		return t.outstanding[i]
	}
	return 0
}

// Rank implements Ranker: shuffle, then ensure the better of the first two
// (by outstanding count) leads.
func (t *TwoChoice) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	for i := len(dst) - 1; i > 0; i-- {
		j := t.rng.IntN(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	if len(dst) >= 2 {
		a, b := t.idx(dst[0]), t.idx(dst[1])
		if t.outstanding[b] < t.outstanding[a] {
			dst[0], dst[1] = dst[1], dst[0]
		}
	}
	return dst
}

// Best implements BestPicker: sample two distinct replicas, keep the one
// with fewer outstanding requests.
func (t *TwoChoice) Best(group []ServerID, now int64) (ServerID, bool) {
	n := len(group)
	if n == 0 {
		return 0, false
	}
	if n == 1 {
		return group[0], true
	}
	i := t.rng.IntN(n)
	j := t.rng.IntN(n - 1)
	if j >= i {
		j++
	}
	a, b := t.idx(group[i]), t.idx(group[j])
	if t.outstanding[b] < t.outstanding[a] {
		return group[j], true
	}
	return group[i], true
}

// LeastResponseTime prefers the server with the lowest smoothed end-to-end
// response time (one of the §6 "did not fare well" strategies).
type LeastResponseTime struct {
	rng     *rand.Rand
	alpha   float64
	reg     *Registry
	rt      []ewma.EWMA // dense, indexed by reg.Index
	scratch []scored
}

// NewLeastResponseTime returns a ranker smoothing RTTs with factor alpha
// (defaulted like RankerConfig.Alpha when out of range). A nil registry
// creates a private one.
func NewLeastResponseTime(reg *Registry, alpha float64, seed uint64) *LeastResponseTime {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.9
	}
	if reg == nil {
		reg = NewRegistry()
	}
	return &LeastResponseTime{
		rng:   sim.RNG(seed, 0x1e57),
		alpha: alpha,
		reg:   reg,
	}
}

// Name implements Ranker.
func (l *LeastResponseTime) Name() string { return "LRT" }

// Registry implements RegistryHolder.
func (l *LeastResponseTime) Registry() *Registry { return l.reg }

func (l *LeastResponseTime) idx(s ServerID) int {
	i := l.reg.Index(s)
	l.rt = grown(l.rt, i, func() ewma.EWMA { return ewma.New(l.alpha) })
	return i
}

// OnSendN implements Ranker.
func (l *LeastResponseTime) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker: the RTT folds in with weight n.
func (l *LeastResponseTime) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	i := l.idx(s) // hoisted: idx may grow the slice it indexes
	l.rt[i].AddN(seconds(rtt), n)
}

// OnAbandonN implements Ranker (no in-flight state; an abandoned request
// observed no RTT to smooth).
func (l *LeastResponseTime) OnAbandonN(ServerID, int, int64) {}

// rtScore reports the smoothed RTT of the server at dense index i, or −Inf
// when unseen (so exploration ranks first).
func (l *LeastResponseTime) rtScore(i int) float64 {
	if e := &l.rt[i]; e.Initialized() {
		return e.Value()
	}
	return math.Inf(-1)
}

// Rank implements Ranker: ascending smoothed RTT; unseen servers first.
func (l *LeastResponseTime) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(l.scratch) < len(dst) {
		l.scratch = make([]scored, 0, len(dst))
	}
	sc := l.scratch[:0]
	for _, s := range dst {
		i := l.idx(s)
		sc = append(sc, scored{s, l.rtScore(i)})
	}
	rankScored(l.rng, dst, sc)
	return dst
}

// Best implements BestPicker: the lowest smoothed-RTT replica, uniform ties.
func (l *LeastResponseTime) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	bi := bestScored(l.rng, len(group), func(i int) float64 {
		return l.rtScore(l.idx(group[i]))
	})
	return group[bi], true
}

// WeightedRandom samples replicas with probability proportional to the
// inverse of their smoothed response time (another dismissed §6 strategy).
type WeightedRandom struct {
	rng     *rand.Rand
	alpha   float64
	reg     *Registry
	rt      []ewma.EWMA // dense, indexed by reg.Index
	weights []float64   // reusable sampling scratch
}

// NewWeightedRandom returns a WeightedRandom ranker. A nil registry creates a
// private one.
func NewWeightedRandom(reg *Registry, alpha float64, seed uint64) *WeightedRandom {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.9
	}
	if reg == nil {
		reg = NewRegistry()
	}
	return &WeightedRandom{rng: sim.RNG(seed, 0x33d), alpha: alpha, reg: reg}
}

// Name implements Ranker.
func (w *WeightedRandom) Name() string { return "WRND" }

// Registry implements RegistryHolder.
func (w *WeightedRandom) Registry() *Registry { return w.reg }

func (w *WeightedRandom) idx(s ServerID) int {
	i := w.reg.Index(s)
	w.rt = grown(w.rt, i, func() ewma.EWMA { return ewma.New(w.alpha) })
	return i
}

// OnSendN implements Ranker.
func (w *WeightedRandom) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker: the RTT folds in with weight n.
func (w *WeightedRandom) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	i := w.idx(s) // hoisted: idx may grow the slice it indexes
	w.rt[i].AddN(seconds(rtt), n)
}

// OnAbandonN implements Ranker (no in-flight state).
func (w *WeightedRandom) OnAbandonN(ServerID, int, int64) {}

// fillWeights computes 1/R̄ sampling weights for dst into the reusable
// scratch (unseen servers get the best observed weight to force exploration).
func (w *WeightedRandom) fillWeights(dst []ServerID) []float64 {
	if cap(w.weights) < len(dst) {
		w.weights = make([]float64, len(dst))
	}
	weights := w.weights[:len(dst)]
	best := 0.0
	for i, s := range dst {
		weights[i] = 0
		j := w.idx(s)
		if e := &w.rt[j]; e.Initialized() && e.Value() > 0 {
			weights[i] = 1 / e.Value()
			if weights[i] > best {
				best = weights[i]
			}
		}
	}
	for i := range weights {
		if weights[i] == 0 {
			if best > 0 {
				weights[i] = best
			} else {
				weights[i] = 1
			}
		}
	}
	return weights
}

// Rank implements Ranker: weighted sampling without replacement, weight
// 1/R̄_s (unseen servers get the best observed weight to force exploration).
func (w *WeightedRandom) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	weights := w.fillWeights(dst)
	// Repeated weighted draws without replacement.
	for i := 0; i < len(dst)-1; i++ {
		total := 0.0
		for j := i; j < len(dst); j++ {
			total += weights[j]
		}
		x := w.rng.Float64() * total
		pick := i
		for j := i; j < len(dst); j++ {
			x -= weights[j]
			if x <= 0 {
				pick = j
				break
			}
		}
		dst[i], dst[pick] = dst[pick], dst[i]
		weights[i], weights[pick] = weights[pick], weights[i]
	}
	return dst
}

// Best implements BestPicker: a single weighted draw.
func (w *WeightedRandom) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	weights := w.fillWeights(group)
	total := 0.0
	for _, wt := range weights {
		total += wt
	}
	x := w.rng.Float64() * total
	for i, wt := range weights {
		x -= wt
		if x <= 0 {
			return group[i], true
		}
	}
	return group[len(group)-1], true
}

// OracleFn exposes a server's instantaneous queue length and mean service
// time (seconds) to the Oracle ranker. Only simulations can implement it.
type OracleFn func(s ServerID) (queue float64, serviceTime float64)

// Oracle ranks replicas by perfect knowledge of the instantaneous q/µ ratio
// (the paper's ORA baseline, §6). It needs no feedback.
type Oracle struct {
	rng     *rand.Rand
	fn      OracleFn
	scratch []scored
}

// NewOracle returns an Oracle ranker reading server state through fn.
func NewOracle(fn OracleFn, seed uint64) *Oracle {
	if fn == nil {
		panic("core: Oracle requires a state function")
	}
	return &Oracle{rng: sim.RNG(seed, 0x04ac1e), fn: fn}
}

// Name implements Ranker.
func (o *Oracle) Name() string { return "ORA" }

// OnSendN implements Ranker.
func (o *Oracle) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker.
func (o *Oracle) OnResponseN(ServerID, int, Feedback, time.Duration, int64) {}

// OnAbandonN implements Ranker (the oracle reads server state directly).
func (o *Oracle) OnAbandonN(ServerID, int, int64) {}

// Rank implements Ranker: ascending (q+1)·serviceTime, random ties.
func (o *Oracle) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(o.scratch) < len(dst) {
		o.scratch = make([]scored, 0, len(dst))
	}
	sc := o.scratch[:0]
	for _, s := range dst {
		q, t := o.fn(s)
		sc = append(sc, scored{s, (q + 1) * t})
	}
	rankScored(o.rng, dst, sc)
	return dst
}

// Best implements BestPicker: the minimum (q+1)·serviceTime replica, uniform
// ties.
func (o *Oracle) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	bi := bestScored(o.rng, len(group), func(i int) float64 {
		q, t := o.fn(group[i])
		return (q + 1) * t
	})
	return group[bi], true
}
