package core

// Equivalence tests: the dense-state (registry-indexed, allocation-free)
// rankers must produce exactly the same orderings as the seed's map-based
// implementations under identical seeds and feedback sequences. The legacy
// implementations below are faithful copies of the pre-refactor code.

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"testing"
	"time"

	"c3/internal/ewma"
	"c3/internal/sim"
)

// --- legacy C3 ranker (map-based, math.Pow scoring, sort.SliceStable) ---

type legacyC3State struct {
	outstanding      float64
	qbar, tbar, rbar ewma.EWMA
}

type legacyCubic struct {
	cfg     RankerConfig
	rng     *rand.Rand
	st      map[ServerID]*legacyC3State
	scratch []scored
}

func newLegacyCubic(cfg RankerConfig) *legacyCubic {
	cfg = cfg.withDefaults()
	return &legacyCubic{cfg: cfg, rng: sim.RNG(cfg.Seed, 0xc3), st: make(map[ServerID]*legacyC3State)}
}

func (c *legacyCubic) Name() string { return "C3-legacy" }

func (c *legacyCubic) state(s ServerID) *legacyC3State {
	st, ok := c.st[s]
	if !ok {
		st = &legacyC3State{
			qbar: ewma.New(c.cfg.Alpha),
			tbar: ewma.New(c.cfg.Alpha),
			rbar: ewma.New(c.cfg.Alpha),
		}
		c.st[s] = st
	}
	return st
}

func (c *legacyCubic) OnSend(s ServerID, now int64) { c.state(s).outstanding++ }

func (c *legacyCubic) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	st := c.state(s)
	if st.outstanding > 0 {
		st.outstanding--
	}
	st.qbar.Add(fb.QueueSize)
	st.tbar.Add(seconds(fb.ServiceTime))
	st.rbar.Add(seconds(rtt))
}

func (c *legacyCubic) OnAbandon(s ServerID, now int64) {
	if st := c.state(s); st.outstanding > 0 {
		st.outstanding--
	}
}

func (c *legacyCubic) score(s ServerID) float64 {
	st := c.state(s)
	if !st.tbar.Initialized() {
		return math.Inf(-1)
	}
	qhat := 1 + st.outstanding*c.cfg.ConcurrencyWeight + st.qbar.Value()
	return CubicScore(st.rbar.Value(), st.tbar.Value(), qhat, c.cfg.Exponent)
}

func (c *legacyCubic) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(c.scratch) < len(dst) {
		c.scratch = make([]scored, len(dst))
	}
	sc := c.scratch[:0]
	for _, s := range dst {
		sc = append(sc, scored{s, c.score(s)})
	}
	shuffleScored(c.rng, sc)
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// --- legacy LOR ---

type legacyLOR struct {
	rng         *rand.Rand
	outstanding map[ServerID]float64
	scratch     []scored
}

func newLegacyLOR(seed uint64) *legacyLOR {
	return &legacyLOR{rng: sim.RNG(seed, 0x10f), outstanding: make(map[ServerID]float64)}
}

func (l *legacyLOR) Name() string                 { return "LOR-legacy" }
func (l *legacyLOR) OnSend(s ServerID, now int64) { l.outstanding[s]++ }

func (l *legacyLOR) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	if l.outstanding[s] > 0 {
		l.outstanding[s]--
	}
}

func (l *legacyLOR) OnAbandon(s ServerID, now int64) {
	if l.outstanding[s] > 0 {
		l.outstanding[s]--
	}
}

func (l *legacyLOR) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(l.scratch) < len(dst) {
		l.scratch = make([]scored, len(dst))
	}
	sc := l.scratch[:0]
	for _, s := range dst {
		sc = append(sc, scored{s, l.outstanding[s]})
	}
	shuffleScored(l.rng, sc)
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// --- legacy RoundRobin (string group keys, scratch-buffer rotate) ---

type legacyRR struct {
	next map[string]int
	key  []byte
}

func newLegacyRR() *legacyRR { return &legacyRR{next: make(map[string]int)} }

func (r *legacyRR) Name() string                                        { return "RR-legacy" }
func (r *legacyRR) OnSend(ServerID, int64)                              {}
func (r *legacyRR) OnResponse(ServerID, Feedback, time.Duration, int64) {}
func (r *legacyRR) OnAbandon(ServerID, int64)                           {}

func (r *legacyRR) groupKey(group []ServerID) string {
	r.key = r.key[:0]
	for _, s := range group {
		r.key = strconv.AppendInt(r.key, int64(s), 36)
		r.key = append(r.key, ',')
	}
	return string(r.key)
}

func (r *legacyRR) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if len(dst) == 0 {
		return dst
	}
	k := r.groupKey(group)
	off := r.next[k] % len(dst)
	r.next[k] = off + 1
	buf := make([]ServerID, len(dst))
	for i := range dst {
		buf[i] = dst[(i+off)%len(dst)]
	}
	copy(dst, buf)
	return dst
}

// --- legacy TwoChoice ---

type legacyTwoChoice struct {
	rng         *rand.Rand
	outstanding map[ServerID]float64
}

func newLegacyTwoChoice(seed uint64) *legacyTwoChoice {
	return &legacyTwoChoice{rng: sim.RNG(seed, 0x2c), outstanding: make(map[ServerID]float64)}
}

func (t *legacyTwoChoice) Name() string                 { return "2C-legacy" }
func (t *legacyTwoChoice) OnSend(s ServerID, now int64) { t.outstanding[s]++ }

func (t *legacyTwoChoice) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	if t.outstanding[s] > 0 {
		t.outstanding[s]--
	}
}

func (t *legacyTwoChoice) OnAbandon(s ServerID, now int64) {
	if t.outstanding[s] > 0 {
		t.outstanding[s]--
	}
}

func (t *legacyTwoChoice) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	for i := len(dst) - 1; i > 0; i-- {
		j := t.rng.IntN(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	if len(dst) >= 2 && t.outstanding[dst[1]] < t.outstanding[dst[0]] {
		dst[0], dst[1] = dst[1], dst[0]
	}
	return dst
}

// --- legacy LeastResponseTime ---

type legacyLRT struct {
	rng     *rand.Rand
	alpha   float64
	rt      map[ServerID]*ewma.EWMA
	scratch []scored
}

func newLegacyLRT(alpha float64, seed uint64) *legacyLRT {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.9
	}
	return &legacyLRT{rng: sim.RNG(seed, 0x1e57), alpha: alpha, rt: make(map[ServerID]*ewma.EWMA)}
}

func (l *legacyLRT) Name() string              { return "LRT-legacy" }
func (l *legacyLRT) OnSend(ServerID, int64)    {}
func (l *legacyLRT) OnAbandon(ServerID, int64) {}

func (l *legacyLRT) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	e, ok := l.rt[s]
	if !ok {
		v := ewma.New(l.alpha)
		e = &v
		l.rt[s] = e
	}
	e.Add(seconds(rtt))
}

func (l *legacyLRT) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(l.scratch) < len(dst) {
		l.scratch = make([]scored, len(dst))
	}
	sc := l.scratch[:0]
	for _, s := range dst {
		v := math.Inf(-1)
		if e, ok := l.rt[s]; ok && e.Initialized() {
			v = e.Value()
		}
		sc = append(sc, scored{s, v})
	}
	shuffleScored(l.rng, sc)
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// --- legacy WeightedRandom ---

type legacyWRND struct {
	rng   *rand.Rand
	alpha float64
	rt    map[ServerID]*ewma.EWMA
}

func newLegacyWRND(alpha float64, seed uint64) *legacyWRND {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.9
	}
	return &legacyWRND{rng: sim.RNG(seed, 0x33d), alpha: alpha, rt: make(map[ServerID]*ewma.EWMA)}
}

func (w *legacyWRND) Name() string              { return "WRND-legacy" }
func (w *legacyWRND) OnSend(ServerID, int64)    {}
func (w *legacyWRND) OnAbandon(ServerID, int64) {}

func (w *legacyWRND) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	e, ok := w.rt[s]
	if !ok {
		v := ewma.New(w.alpha)
		e = &v
		w.rt[s] = e
	}
	e.Add(seconds(rtt))
}

func (w *legacyWRND) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	weights := make([]float64, len(dst))
	best := 0.0
	for i, s := range dst {
		if e, ok := w.rt[s]; ok && e.Initialized() && e.Value() > 0 {
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

// --- legacy DynamicSnitch ---

type legacySnitchPeer struct {
	samples  []float64
	idx, n   int
	severity float64
	score    float64
}

type legacySnitch struct {
	cfg         SnitchConfig
	rng         *rand.Rand
	peers       map[ServerID]*legacySnitchPeer
	lastCompute int64
	lastReset   int64
	began       bool
	scratch     []scored
}

func newLegacySnitch(cfg SnitchConfig) *legacySnitch {
	cfg = cfg.withDefaults()
	return &legacySnitch{cfg: cfg, rng: sim.RNG(cfg.Seed, 0xd5), peers: make(map[ServerID]*legacySnitchPeer)}
}

func (d *legacySnitch) Name() string { return "DS-legacy" }

func (d *legacySnitch) peer(s ServerID) *legacySnitchPeer {
	p, ok := d.peers[s]
	if !ok {
		p = &legacySnitchPeer{samples: make([]float64, d.cfg.HistorySize)}
		d.peers[s] = p
	}
	return p
}

func (d *legacySnitch) OnSend(ServerID, int64)    {}
func (d *legacySnitch) OnAbandon(ServerID, int64) {}

func (d *legacySnitch) OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64) {
	p := d.peer(s)
	p.samples[p.idx] = seconds(rtt)
	p.idx = (p.idx + 1) % len(p.samples)
	if p.n < len(p.samples) {
		p.n++
	}
}

func (d *legacySnitch) SetSeverity(s ServerID, iowait float64) {
	if iowait < 0 {
		iowait = 0
	}
	d.peer(s).severity = iowait
}

func legacyMedian(p *legacySnitchPeer, buf []float64) (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	buf = append(buf[:0], p.samples[:p.n]...)
	sort.Float64s(buf)
	m := len(buf)
	if m%2 == 1 {
		return buf[m/2], true
	}
	return (buf[m/2-1] + buf[m/2]) / 2, true
}

func (d *legacySnitch) recompute(now int64) {
	var buf []float64
	maxMed := 0.0
	meds := make(map[ServerID]float64, len(d.peers))
	for id, p := range d.peers {
		if med, ok := legacyMedian(p, buf); ok {
			meds[id] = med
			if med > maxMed {
				maxMed = med
			}
		}
	}
	for id, p := range d.peers {
		latScore := 0.0
		if med, ok := meds[id]; ok && maxMed > 0 {
			latScore = med / maxMed
		}
		p.score = latScore + d.cfg.SeverityWeight*p.severity
	}
	d.lastCompute = now
}

func (d *legacySnitch) maybeTick(now int64) {
	if !d.began {
		d.began = true
		d.lastCompute = now
		d.lastReset = now
		return
	}
	if now-d.lastReset >= d.cfg.ResetInterval {
		for _, p := range d.peers {
			p.n, p.idx = 0, 0
		}
		d.lastReset = now
	}
	if now-d.lastCompute >= d.cfg.UpdateInterval {
		d.recompute(now)
	}
}

func (d *legacySnitch) Rank(dst, group []ServerID, now int64) []ServerID {
	d.maybeTick(now)
	dst = prepare(dst, group)
	if cap(d.scratch) < len(dst) {
		d.scratch = make([]scored, len(dst))
	}
	sc := d.scratch[:0]
	for _, s := range dst {
		sc = append(sc, scored{s, d.peer(s).score})
	}
	sort.SliceStable(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score < sc[j].score
		}
		return sc[i].s < sc[j].s
	})
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// --- legacy Oracle ---

type legacyOracle struct {
	rng     *rand.Rand
	fn      OracleFn
	scratch []scored
}

func newLegacyOracle(fn OracleFn, seed uint64) *legacyOracle {
	return &legacyOracle{rng: sim.RNG(seed, 0x04ac1e), fn: fn}
}

func (o *legacyOracle) Name() string                                        { return "ORA-legacy" }
func (o *legacyOracle) OnSend(ServerID, int64)                              {}
func (o *legacyOracle) OnResponse(ServerID, Feedback, time.Duration, int64) {}
func (o *legacyOracle) OnAbandon(ServerID, int64)                           {}

func (o *legacyOracle) Rank(dst, group []ServerID, now int64) []ServerID {
	dst = prepare(dst, group)
	if cap(o.scratch) < len(dst) {
		o.scratch = make([]scored, len(dst))
	}
	sc := o.scratch[:0]
	for _, s := range dst {
		q, t := o.fn(s)
		sc = append(sc, scored{s, (q + 1) * t})
	}
	shuffleScored(o.rng, sc)
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// --- the lockstep driver ---

// legacyRanker is the seed's point-event ranker interface, which the legacy
// copies above implement: one event per request, no key count.
type legacyRanker interface {
	Rank(dst, group []ServerID, now int64) []ServerID
	OnSend(s ServerID, now int64)
	OnResponse(s ServerID, fb Feedback, rtt time.Duration, now int64)
	OnAbandon(s ServerID, now int64)
}

// runEquivalence drives a dense ranker and its legacy twin through an
// identical randomized workload — rotating replica groups, random in-flight
// responses with random feedback — and requires Rank to produce identical
// orderings on every round. The dense ranker sees each point event as its
// one-key (n = 1) form. extra, when non-nil, applies side-channel inputs
// (e.g. snitch severities) to both rankers.
func runEquivalence(t *testing.T, dense Ranker, legacy legacyRanker, extra func(scen *rand.Rand, now int64)) {
	t.Helper()
	scen := sim.RNG(0x5eed, 0xe9)
	groups := [][]ServerID{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 0}, {4, 0, 1},
		{0, 1, 2, 3, 4}, {5, 6}, {6, 5, 0},
	}
	var inflight []ServerID
	dstA := make([]ServerID, 8)
	dstB := make([]ServerID, 8)
	now := int64(0)
	for round := 0; round < 4000; round++ {
		now += int64(scen.IntN(3_000_000)) // 0–3 ms steps: crosses snitch ticks
		if extra != nil && round%37 == 0 {
			extra(scen, now)
		}
		g := groups[scen.IntN(len(groups))]
		a := dense.Rank(dstA, g, now)
		b := legacy.Rank(dstB, g, now)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d group %v: dense %v != legacy %v", round, g, a, b)
			}
		}
		s := a[0]
		dense.OnSendN(s, 1, now)
		legacy.OnSend(s, now)
		inflight = append(inflight, s)
		for len(inflight) > 0 && scen.Float64() < 0.7 {
			i := scen.IntN(len(inflight))
			rs := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			fb := Feedback{
				QueueSize:   scen.Float64() * 20,
				ServiceTime: time.Duration(1 + scen.IntN(5_000_000)),
			}
			rtt := time.Duration(1 + scen.IntN(8_000_000))
			if scen.Float64() < 0.15 {
				// A slice of in-flight requests never completes: both
				// sides must release accounting identically.
				dense.OnAbandonN(rs, 1, now)
				legacy.OnAbandon(rs, now)
			} else {
				dense.OnResponseN(rs, 1, fb, rtt, now)
				legacy.OnResponse(rs, fb, rtt, now)
			}
		}
	}
}

func TestEquivalenceCubic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		cfg := RankerConfig{ConcurrencyWeight: 8, Seed: seed}
		runEquivalence(t, NewCubicRanker(cfg), newLegacyCubic(cfg), nil)
	}
}

func TestEquivalenceCubicNonCubeExponent(t *testing.T) {
	// Exponent ≠ 3 exercises the math.Pow fallback path.
	cfg := RankerConfig{ConcurrencyWeight: 8, Exponent: 2, Seed: 5}
	runEquivalence(t, NewCubicRanker(cfg), newLegacyCubic(cfg), nil)
}

func TestEquivalenceLOR(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		runEquivalence(t, NewLOR(nil, seed), newLegacyLOR(seed), nil)
	}
}

func TestEquivalenceRoundRobin(t *testing.T) {
	runEquivalence(t, NewRoundRobin(nil), newLegacyRR(), nil)
}

func TestEquivalenceTwoChoice(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		runEquivalence(t, NewTwoChoice(nil, seed), newLegacyTwoChoice(seed), nil)
	}
}

func TestEquivalenceLeastResponseTime(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		runEquivalence(t, NewLeastResponseTime(nil, 0.9, seed), newLegacyLRT(0.9, seed), nil)
	}
}

func TestEquivalenceWeightedRandom(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		runEquivalence(t, NewWeightedRandom(nil, 0.9, seed), newLegacyWRND(0.9, seed), nil)
	}
}

func TestEquivalenceDynamicSnitch(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		cfg := SnitchConfig{Seed: seed, HistorySize: 16}
		dense := NewDynamicSnitch(cfg)
		legacy := newLegacySnitch(cfg)
		runEquivalence(t, dense, legacy, func(scen *rand.Rand, now int64) {
			s := ServerID(scen.IntN(7))
			v := scen.Float64() * 0.2
			dense.SetSeverity(s, v)
			legacy.SetSeverity(s, v)
		})
	}
}

func TestEquivalenceOracle(t *testing.T) {
	// Mutable fake server state shared by both oracles.
	q := make([]float64, 8)
	st := make([]float64, 8)
	fn := func(s ServerID) (float64, float64) { return q[s], st[s] }
	dense := NewOracle(fn, 3)
	legacy := newLegacyOracle(fn, 3)
	runEquivalence(t, dense, legacy, func(scen *rand.Rand, now int64) {
		i := scen.IntN(len(q))
		q[i] = float64(scen.IntN(20))
		st[i] = 0.001 + scen.Float64()*0.01
	})
}
