package cassim

import (
	"math/rand/v2"
	"time"

	"c3/internal/core"
	"c3/internal/ring"
	"c3/internal/sim"
	"c3/internal/workload"
)

// node is one Cassandra-like server: a storage replica (read and write
// stages with bounded concurrency and FIFO queues, an LSM-flavoured service
// time model, GC pauses, compaction) and a coordinator (replica selection
// over the ring with the configured strategy, read repair, speculative
// retries).
type node struct {
	e   *engine
	id  int
	rng *rand.Rand

	// Storage stages.
	read  stage
	write stage

	// Disturbance state.
	pausedUntil int64   // GC stop-the-world
	ioFactor    float64 // disk-time multiplier (compaction)
	compacting  bool
	slowFactor  float64 // Fig. 13 injected inflation

	// Server-side smoothed service time: the 1/µ_s each response carries.
	svcEstNs float64

	// Coordinator state.
	sel    *core.Client
	scheds []*core.GroupScheduler[*readOp]
	waking []bool

	// Speculative retry latency history (ms), a sliding window.
	lat     []float64
	latIdx  int
	latFull bool
}

// stage is a bounded-concurrency FIFO service stage.
type stage struct {
	slots int
	busy  int
	queue []*job
	head  int
}

func (st *stage) pending() int { return len(st.queue) - st.head + st.busy }

func (st *stage) pop() *job {
	if st.head >= len(st.queue) {
		return nil
	}
	j := st.queue[st.head]
	st.queue[st.head] = nil
	st.head++
	if st.head == len(st.queue) {
		st.queue = st.queue[:0]
		st.head = 0
	} else if st.head > 256 && st.head*2 > len(st.queue) {
		n := copy(st.queue, st.queue[st.head:])
		st.queue = st.queue[:n]
		st.head = 0
	}
	return j
}

// job is one unit of storage work.
type job struct {
	isRead bool
	sizeB  int
	tSent  int64 // when the coordinator dispatched it
	from   *node // coordinator to reply to
	exec   *node // replica executing the job
	op     *readOp
	wr     *writeOp
}

func newNode(e *engine, id int) *node {
	cfg := e.cfg
	n := &node{
		e:          e,
		id:         id,
		rng:        sim.RNG(cfg.Seed, 1000+uint64(id)),
		read:       stage{slots: cfg.ReadSlots},
		write:      stage{slots: cfg.WriteSlots},
		ioFactor:   1,
		slowFactor: 1,
		svcEstNs:   float64(cfg.CPUMean),
		lat:        make([]float64, 512),
	}
	seed := cfg.Seed ^ (0xca55<<32 + uint64(id))
	rcfg := core.RankerConfig{
		ConcurrencyWeight: float64(cfg.Nodes), // coordinators are the C3 clients
		Seed:              seed,
		Registry:          e.reg,
	}
	var ranker core.Ranker
	rateControl := false
	switch cfg.Strategy {
	case StratC3, StratC3Spec:
		ranker = core.NewCubicRanker(rcfg)
		rateControl = true
	case StratDS, StratDSSpec:
		ranker = core.NewDynamicSnitch(core.SnitchConfig{
			Seed:        seed,
			HistorySize: cfg.SnitchHistory,
			Registry:    e.reg,
		})
	case StratLOR:
		ranker = core.NewLOR(e.reg, seed)
	case StratRR:
		ranker = core.NewRoundRobin(e.reg)
		rateControl = true
	default:
		panic("cassim: unknown strategy " + cfg.Strategy)
	}
	n.sel = core.NewClient(ranker, core.ClientConfig{RateControl: rateControl, Rate: cfg.Rate})
	n.scheds = make([]*core.GroupScheduler[*readOp], len(e.groups))
	n.waking = make([]bool, len(e.groups))
	for g := range e.groups {
		n.scheds[g] = core.NewGroupScheduler[*readOp](n.sel, e.groups[g])
	}
	return n
}

// iowait reports the node's current iowait fraction (gossiped to snitches),
// with per-tick jitter — the noisy signal §2.3 blames for DS's misranking.
func (n *node) iowait(now int64) float64 {
	w := n.e.cfg.BaseIOWait
	if n.compacting {
		w = n.e.cfg.CompactIOWait
	}
	return w + n.rng.Float64()*n.e.cfg.IOWaitJitter
}

// scheduleDisturbances arms the GC-pause, compaction and injected-slowdown
// processes for this node.
func (n *node) scheduleDisturbances() {
	cfg := n.e.cfg
	s := n.e.s

	var gc func()
	gc = func() {
		if !n.e.running() {
			return
		}
		span := float64(cfg.GCMaxPause - cfg.GCMinPause)
		pause := int64(cfg.GCMinPause) + int64(n.rng.Float64()*span)
		if t := s.Now() + pause; t > n.pausedUntil {
			n.pausedUntil = t
		}
		s.After(sim.Exp(n.rng, float64(cfg.GCMeanInterval)), gc)
	}
	s.After(sim.Exp(n.rng, float64(cfg.GCMeanInterval)), gc)

	var compact func()
	compact = func() {
		if !n.e.running() {
			return
		}
		n.compacting = true
		n.ioFactor = cfg.CompactIOFactor
		s.AfterDur(cfg.CompactDuration, func() {
			n.compacting = false
			n.ioFactor = 1
		})
		s.After(sim.Exp(n.rng, float64(cfg.CompactInterval)), compact)
	}
	s.After(sim.Exp(n.rng, float64(cfg.CompactInterval)), compact)

	for _, sl := range cfg.Slowdowns {
		if sl.Node != n.id {
			continue
		}
		sl := sl
		s.At(int64(sl.From), func() { n.slowFactor = sl.Factor })
		s.At(int64(sl.To), func() { n.slowFactor = 1 })
	}
}

// ---- storage path ----

// enqueue admits a job to the proper stage, starting service if a slot is
// free.
func (n *node) enqueue(j *job) {
	st := &n.read
	if j.isRead {
		n.e.res.PerNodeArrivals[n.id].Record(n.e.s.Now())
	} else {
		st = &n.write
	}
	if st.busy < st.slots {
		n.startJob(st, j)
		return
	}
	st.queue = append(st.queue, j)
}

// serviceTime draws the storage time for a job from the LSM cost model.
func (n *node) serviceTime(j *job) int64 {
	cfg := n.e.cfg
	var d float64
	if j.isRead {
		d = float64(sim.Exp(n.rng, float64(cfg.CPUMean)))
		if n.rng.Float64() < cfg.CacheMissProb {
			d += float64(sim.Exp(n.rng, float64(cfg.SeekMean))) * n.ioFactor
		}
		d += float64(j.sizeB) / 1024 * float64(cfg.SizeCostPerKB)
	} else {
		d = float64(sim.Exp(n.rng, float64(cfg.WriteMean)))
		d += float64(j.sizeB) / 1024 * float64(cfg.SizeCostPerKB) / 4
	}
	return int64(d * n.slowFactor)
}

// startJob begins service, deferring past a GC pause if one is active.
func (n *node) startJob(st *stage, j *job) {
	s := n.e.s
	st.busy++
	begin := s.Now()
	if n.pausedUntil > begin {
		begin = n.pausedUntil
	}
	d := n.serviceTime(j)
	s.At(begin+d, func() { n.completeJob(st, j, d) })
}

// completeJob finishes service (re-deferring if a GC pause landed mid-
// service), emits the response with piggybacked feedback, and pulls the next
// queued job.
func (n *node) completeJob(st *stage, j *job, d int64) {
	s := n.e.s
	if n.pausedUntil > s.Now() {
		// The stop-the-world pause freezes in-flight work too.
		at := n.pausedUntil
		s.At(at, func() { n.completeJob(st, j, d) })
		return
	}
	st.busy--
	if j.isRead {
		// Track served reads per 100 ms window (Figs. 2, 8, 9).
		n.e.res.PerNodeReads[n.id].Record(s.Now())
		// Server-side smoothed service time (the 1/µ_s feedback).
		n.svcEstNs = 0.2*float64(d) + 0.8*n.svcEstNs
	}
	fb := core.Feedback{
		QueueSize:   float64(n.read.pending()),
		ServiceTime: time.Duration(n.svcEstNs),
	}
	dst := j.from
	jj := j
	n.e.netDelay(n, dst, func() {
		if jj.isRead {
			dst.onReadReply(jj, fb)
		} else {
			dst.onWriteAck(jj)
		}
	})
	if next := st.pop(); next != nil {
		n.startJob(st, next)
	}
}

// ---- coordinator path ----

// readOp is a coordinator-side read operation.
type readOp struct {
	gen      *generator
	key      uint64
	sizeB    int
	tIssued  int64 // departure from the generator
	tStart   int64 // arrival at the coordinator
	group    int
	coord    *node
	done     bool
	needed   int // responses required (ReadConsistency)
	got      int
	repair   bool
	attempts int
	specEv   *sim.Event
	ranked   []core.ServerID // selection order at dispatch (for spec retry)
}

// writeOp is a coordinator-side update operation.
type writeOp struct {
	gen     *generator
	tIssued int64
	tStart  int64
	acked   bool
	coord   *node
}

// coordinateRead runs Algorithm 1 for one read arriving at this coordinator.
func (n *node) coordinateRead(op *readOp) {
	op.coord = n
	op.group = n.e.ring.GroupIndexFor(tokenOf(op.key))
	op.needed = n.e.cfg.ReadConsistency
	op.repair = n.rng.Float64() < n.e.cfg.ReadRepair
	sched := n.scheds[op.group]
	sched.Submit(op, n.e.s.Now(), n.dispatchRead)
	if sched.Backlog() > 0 {
		n.e.backpressured++
		if n.e.cfg.TraceRates {
			n.e.res.Backpressure = append(n.e.res.Backpressure, time.Duration(n.e.s.Now()))
		}
		n.armWake(op.group)
	}
}

// armWake schedules a backlog retry for one replica-group scheduler.
func (n *node) armWake(g int) {
	if n.waking[g] {
		return
	}
	at, ok := n.scheds[g].NextRetry(n.e.s.Now())
	if !ok {
		return
	}
	n.waking[g] = true
	if at <= n.e.s.Now() {
		at = n.e.s.Now() + 1
	}
	n.e.s.At(at, func() {
		n.waking[g] = false
		n.scheds[g].Drain(n.e.s.Now(), n.dispatchRead)
		if n.scheds[g].Backlog() > 0 {
			n.armWake(g)
		}
	})
}

// dispatchRead sends the read to its selected replica (plus the whole group
// on read repair) and arms the speculative-retry timer when configured.
func (n *node) dispatchRead(primary core.ServerID, op *readOp) {
	now := n.e.s.Now()
	op.attempts++
	op.ranked = append(op.ranked[:0], n.e.groups[op.group]...)
	// Move the primary to the front of the remembered order.
	for i, s := range op.ranked {
		if s == primary {
			op.ranked[0], op.ranked[i] = op.ranked[i], op.ranked[0]
			break
		}
	}
	n.sendRead(op, primary, now)
	sentTo := map[core.ServerID]bool{primary: true}
	// Quorum reads (§7 extension): consult the next best-ranked replicas
	// so the read completes at the ReadConsistency-th response.
	for i := 1; i < op.needed && i < len(op.ranked); i++ {
		s := op.ranked[i]
		n.sel.OnSendN(s, 1, now)
		n.sendRead(op, s, now)
		sentTo[s] = true
	}
	if op.repair {
		for _, s := range n.e.groups[op.group] {
			if !sentTo[s] {
				n.sel.OnSendN(s, 1, now)
				n.sendRead(op, s, now)
			}
		}
	}
	spec := n.e.cfg.Strategy == StratDSSpec || n.e.cfg.Strategy == StratC3Spec
	if spec && !op.repair && op.needed == 1 {
		n.armSpeculation(op)
	}
}

// sendRead models the coordinator→replica hop (free when local).
func (n *node) sendRead(op *readOp, replica core.ServerID, now int64) {
	target := n.e.nodes[int(replica)]
	j := &job{isRead: true, sizeB: op.sizeB, tSent: now, from: n, exec: target, op: op}
	n.e.netDelay(n, target, func() { target.enqueue(j) })
}

// armSpeculation schedules a duplicate read to the next-best replica if no
// response lands within the coordinator's observed p99 latency estimate.
func (n *node) armSpeculation(op *readOp) {
	wait := n.specWait()
	op.specEv = n.e.s.After(wait, func() {
		if op.done || op.attempts >= len(op.ranked) {
			return
		}
		next := op.ranked[op.attempts]
		op.attempts++
		n.e.res.SpeculativeRetries++
		n.sel.OnSendN(next, 1, n.e.s.Now())
		n.sendRead(op, next, n.e.s.Now())
	})
}

// specWait reports the current speculative-retry delay: the p99 of recent
// read latencies at this coordinator (floor 1 ms until warmed up).
func (n *node) specWait() int64 {
	count := n.latIdx
	if n.latFull {
		count = len(n.lat)
	}
	if count < 32 {
		return 10 * sim.Millisecond
	}
	buf := append([]float64(nil), n.lat[:count]...)
	// Quick selection via sort: 512 values, negligible cost.
	q := n.e.cfg.SpecRetryQuantile / 100
	idx := int(q * float64(count-1))
	// Partial selection: simple sort is fine at this size.
	sortFloats(buf)
	return int64(buf[idx] * 1e6)
}

func sortFloats(xs []float64) {
	// Insertion sort: the window is small and nearly sorted between calls.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// onReadReply handles a replica's read response at the coordinator.
func (n *node) onReadReply(j *job, fb core.Feedback) {
	now := n.e.s.Now()
	op := j.op
	rtt := time.Duration(now - j.tSent)
	n.sel.OnResponseN(core.ServerID(j.exec.id), 1, fb, rtt, now)
	if op.done {
		return
	}
	op.got++
	if op.got < op.needed {
		return
	}
	op.done = true
	if op.specEv != nil {
		op.specEv.Cancel()
	}
	latMs := float64(now-op.tStart) / 1e6
	n.lat[n.latIdx] = latMs
	n.latIdx++
	if n.latIdx == len(n.lat) {
		n.latIdx = 0
		n.latFull = true
	}
	// Reply to the generator.
	n.e.netDelay(nil, nil, func() { op.gen.onReadDone(op, latMs) })
	// A response may free rate for backlogged work.
	sched := n.scheds[op.group]
	if sched.Backlog() > 0 {
		sched.Drain(now, n.dispatchRead)
		if sched.Backlog() > 0 {
			n.armWake(op.group)
		}
	}
}

// coordinateWrite fans an update out to every replica; CL=ONE acks on the
// first response.
func (n *node) coordinateWrite(wr *writeOp, key uint64, sizeB int) {
	wr.coord = n
	now := n.e.s.Now()
	group := n.e.groups[n.e.ring.GroupIndexFor(tokenOf(key))]
	for _, r := range group {
		target := n.e.nodes[int(r)]
		j := &job{isRead: false, sizeB: sizeB, tSent: now, from: n, exec: target, wr: wr}
		n.e.netDelay(n, target, func() { target.enqueue(j) })
	}
}

// onWriteAck completes an update at the first replica ack.
func (n *node) onWriteAck(j *job) {
	wr := j.wr
	if wr.acked {
		return
	}
	wr.acked = true
	latMs := float64(n.e.s.Now()-wr.tStart) / 1e6
	n.e.netDelay(nil, nil, func() { wr.gen.onWriteDone(latMs) })
}

// tokenOf maps an item to its ring token through its YCSB key string,
// exactly as a real client would partition it.
func tokenOf(item uint64) int64 {
	return ring.Token([]byte(workload.Key(item)))
}
