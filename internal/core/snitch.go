package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"c3/internal/sim"
)

// SnitchConfig holds the tunables of the Dynamic Snitching model. The
// defaults replicate the behaviour the paper describes in §2.3 for Cassandra:
// scores recomputed on a fixed 100 ms interval from decayed read-latency
// histories, gossiped one-second iowait averages dominating the score by
// about two orders of magnitude, and a full history reset every 10 minutes.
type SnitchConfig struct {
	// UpdateInterval is how often peer scores are recomputed (default
	// 100 ms). Between recomputes the ranking is frozen — the staleness
	// and synchronization weakness §2.3 identifies.
	UpdateInterval int64
	// ResetInterval flushes all latency histories (default 10 min).
	ResetInterval int64
	// HistorySize bounds the per-peer latency sample ring (default 128).
	HistorySize int
	// SeverityWeight multiplies the gossiped iowait fraction relative to
	// the normalized (≤1) latency score. The paper reports iowait has "up
	// to two orders of magnitude more influence"; default 100.
	SeverityWeight float64
	// Seed drives tie-breaking randomness.
	Seed uint64
	// Registry interns server IDs to the dense indices this ranker keys
	// its per-peer state by; nil creates a private one.
	Registry *Registry
}

func (c SnitchConfig) withDefaults() SnitchConfig {
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 100 * 1e6
	}
	if c.ResetInterval <= 0 {
		c.ResetInterval = 10 * 60 * 1e9
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 128
	}
	if c.SeverityWeight <= 0 {
		c.SeverityWeight = 100
	}
	return c
}

type snitchPeer struct {
	samples  []float64 // ring buffer of response times, seconds (lazy)
	idx, n   int
	severity float64 // gossiped iowait fraction [0,1]
	score    float64 // cached score from last recompute
}

// DynamicSnitch models Cassandra's Dynamic Snitching as a Ranker, serving as
// the §5 baseline ("DS"). Its interval-frozen rankings are what produce the
// synchronized load oscillations of Fig. 2.
type DynamicSnitch struct {
	cfg SnitchConfig
	rng *rand.Rand
	reg *Registry

	peers       []snitchPeer // dense, indexed by reg.Index
	lastCompute int64
	lastReset   int64
	began       bool
	scratch     []scored
	medBuf      []float64 // median sort scratch, reused across peers
	meds        []float64 // recompute scratch; NaN = no samples
}

// NewDynamicSnitch returns a Dynamic Snitching ranker.
func NewDynamicSnitch(cfg SnitchConfig) *DynamicSnitch {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	return &DynamicSnitch{
		cfg: cfg,
		rng: sim.RNG(cfg.Seed, 0xd5),
		reg: reg,
	}
}

// Name implements Ranker.
func (d *DynamicSnitch) Name() string { return "DS" }

// Registry implements RegistryHolder.
func (d *DynamicSnitch) Registry() *Registry { return d.reg }

func (d *DynamicSnitch) peer(s ServerID) *snitchPeer {
	i := d.reg.Index(s)
	d.peers = grown(d.peers, i, nil)
	p := &d.peers[i]
	if p.samples == nil {
		p.samples = make([]float64, d.cfg.HistorySize)
	}
	return p
}

// OnSendN implements Ranker.
func (d *DynamicSnitch) OnSendN(ServerID, int, int64) {}

// OnResponseN implements Ranker: appends the observed response time to the
// peer's latency history — one sample per response, whatever n is, as
// Cassandra records one latency per read message. No caller here passes
// n > 1: only the Cassandra-model simulator ranks with the snitch, and it
// sends point reads.
func (d *DynamicSnitch) OnResponseN(s ServerID, n int, fb Feedback, rtt time.Duration, now int64) {
	p := d.peer(s)
	p.samples[p.idx] = seconds(rtt)
	p.idx = (p.idx + 1) % len(p.samples)
	if p.n < len(p.samples) {
		p.n++
	}
}

// OnAbandonN implements Ranker (the snitch keeps latency histories, not
// in-flight counts; an abandoned request contributes no sample).
func (d *DynamicSnitch) OnAbandonN(ServerID, int, int64) {}

// SetSeverity records the gossiped iowait fraction (0..1) for peer s. In the
// cluster substrates this is fed by the gossip subsystem's one-second
// averages.
func (d *DynamicSnitch) SetSeverity(s ServerID, iowait float64) {
	if iowait < 0 {
		iowait = 0
	}
	d.peer(s).severity = iowait
}

// peerRO is the read-only counterpart of peer: nil for unseen servers,
// without interning them.
func (d *DynamicSnitch) peerRO(s ServerID) *snitchPeer {
	if i, ok := d.reg.Lookup(s); ok && i < len(d.peers) {
		return &d.peers[i]
	}
	return nil
}

// Severity reports the last gossiped iowait fraction for s (0 when unseen).
// It is a pure read and does not intern s.
func (d *DynamicSnitch) Severity(s ServerID) float64 {
	if p := d.peerRO(s); p != nil {
		return p.severity
	}
	return 0
}

// medianLatency computes the median of the peer's history ring using the
// shared scratch buffer.
func (d *DynamicSnitch) medianLatency(p *snitchPeer) (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	if cap(d.medBuf) < p.n {
		d.medBuf = make([]float64, 0, cap(p.samples))
	}
	buf := append(d.medBuf[:0], p.samples[:p.n]...)
	slices.Sort(buf)
	m := len(buf)
	if m%2 == 1 {
		return buf[m/2], true
	}
	return (buf[m/2-1] + buf[m/2]) / 2, true
}

// recompute refreshes all cached peer scores:
//
//	score = medianLatency/maxMedianLatency + SeverityWeight·iowait
//
// The latency term is normalized to ≤1, so a gossiped iowait of just a few
// percent dominates the ranking — reproducing the §2.3 observation.
func (d *DynamicSnitch) recompute(now int64) {
	if cap(d.meds) < len(d.peers) {
		d.meds = make([]float64, len(d.peers))
	}
	meds := d.meds[:len(d.peers)]
	maxMed := 0.0
	for i := range d.peers {
		meds[i] = math.NaN()
		if med, ok := d.medianLatency(&d.peers[i]); ok {
			meds[i] = med
			if med > maxMed {
				maxMed = med
			}
		}
	}
	for i := range d.peers {
		p := &d.peers[i]
		latScore := 0.0
		if !math.IsNaN(meds[i]) && maxMed > 0 {
			latScore = meds[i] / maxMed
		}
		p.score = latScore + d.cfg.SeverityWeight*p.severity
	}
	d.lastCompute = now
}

// maybeTick applies interval recomputation and the periodic history reset.
func (d *DynamicSnitch) maybeTick(now int64) {
	if !d.began {
		d.began = true
		d.lastCompute = now
		d.lastReset = now
		return
	}
	if now-d.lastReset >= d.cfg.ResetInterval {
		for i := range d.peers {
			d.peers[i].n, d.peers[i].idx = 0, 0
		}
		d.lastReset = now
	}
	if now-d.lastCompute >= d.cfg.UpdateInterval {
		d.recompute(now)
	}
}

// Score reports the cached score of s as of the last recompute tick (0 when
// unseen). It is a pure read and does not intern s.
func (d *DynamicSnitch) Score(s ServerID) float64 {
	if p := d.peerRO(s); p != nil {
		return p.score
	}
	return 0
}

// insertionSortScoredByID stably sorts sc ascending by (score, server id) —
// Dynamic Snitching's fully deterministic comparator.
func insertionSortScoredByID(sc []scored) {
	for i := 1; i < len(sc); i++ {
		x := sc[i]
		j := i - 1
		for j >= 0 && (sc[j].score > x.score || (sc[j].score == x.score && sc[j].s > x.s)) {
			sc[j+1] = sc[j]
			j--
		}
		sc[j+1] = x
	}
}

// Rank implements Ranker: ascending cached score. Crucially the scores are
// only refreshed every UpdateInterval, so all requests within an interval see
// the same ordering.
func (d *DynamicSnitch) Rank(dst, group []ServerID, now int64) []ServerID {
	d.maybeTick(now)
	dst = prepare(dst, group)
	if cap(d.scratch) < len(dst) {
		d.scratch = make([]scored, 0, len(dst))
	}
	sc := d.scratch[:0]
	for _, s := range dst {
		sc = append(sc, scored{s, d.peer(s).score})
	}
	// Deterministic order within an interval is the point: Cassandra
	// sorts by score, so every coordinator repeatedly picks the same
	// "best" peer until the next recompute. Ties broken by ID.
	insertionSortScoredByID(sc)
	for i := range sc {
		dst[i] = sc[i].s
	}
	return dst
}

// Best implements BestPicker: the minimum (score, id) peer — the same fully
// deterministic comparator as Rank, without sorting.
func (d *DynamicSnitch) Best(group []ServerID, now int64) (ServerID, bool) {
	if len(group) == 0 {
		return 0, false
	}
	d.maybeTick(now)
	best := group[0]
	bestScore := d.peer(group[0]).score
	for _, s := range group[1:] {
		sc := d.peer(s).score
		if sc < bestScore || (sc == bestScore && s < best) {
			best, bestScore = s, sc
		}
	}
	return best, true
}
