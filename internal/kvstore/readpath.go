package kvstore

import (
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/ring"
	"c3/internal/wire"
)

// The read ladder, the one read coordinator. Every coordinated read goes
// through one gather: a point read at any level (a batch of one), a MultiGet
// at any level, and the version-only existence check behind RESP DEL. The
// keys are partitioned by replica group into sub-batches, and each sub-batch
// runs the same ladder, the way Cassandra serves a read:
//
//   - Dispatch. The group is ranked and admitted with one rate token
//     (PickBatch, backpressure, fail open). The C3-best replica gets a data
//     read; the next R-1 in rank order get digests — version-only reads.
//     CL=ONE is R = 1 with no digests; ALL is R = N. With the ReadRepair
//     probability every other replica, the coordinator's own included, gets
//     a probe: a digest that never counts toward R, is never failed over,
//     and is abandoned on failure.
//   - Escalation. When the R answers are late, one hedge goes to the next
//     untried replica after the adaptive delay (a data read while no data
//     answer is in, a digest otherwise); a failed leg fails over to the next
//     untried replica with a leg of its own kind; the read budget backstops
//     the whole gather.
//   - Merge. Per key the highest found version among the R responders wins,
//     and a key is absent only if no responder has it. When a digest won, the
//     values are fetched from that replica — one extra round trip, counted as
//     a digest fetch. Then every responder that answered older or absent is
//     repaired under the replica-side version guard before the read returns:
//     one guarded write per stale replica, all at once — a MsgStreamPush
//     frame, whatever its key count, which the drop-writes fault never drops.
//   - Read repair. A probe that answered older or absent than the merged
//     answer gets the same guarded write-back, in the background: checked
//     once the read is decided, or when the probe settles if it lands after
//     the answer, so no read waits on a probe.
//
// Every leg is an event. A remote leg — data, digest, probe or fetch — is
// one MsgBatchReadInternal frame, whatever its key count, on a pooled async
// call record completed on its connection's read loop; a local leg is served
// on the owner's goroutine (or, behind a storage delay, on one of its own);
// and all of them land on the gather's one reusable event channel, where one
// owner drives every sub-batch's ladder. A leg that resolves after the owner
// stopped listening settles its own selector accounting and recycles its
// records; the last reference recycles the gather. A read spawns no
// goroutine and allocates nothing per replica or per key in steady state.
//
// Selector accounting keeps the zero-residual invariant with batch weights:
// every PickBatch/PickNextN/PickHedgeN of n keys is balanced by exactly one
// OnResponseN (feedback, or the failure penalty) or OnAbandonN (our own
// shutdown, a retired peer, a failed probe). Digest replies train C3 like any
// other response. Fetches are not ranked and not accounted.

// Leg kinds.
const (
	legData   uint8 = iota // values; counts toward R
	legDigest              // versions only; counts toward R
	legProbe               // versions for feedback and read repair; never counts
	legFetch               // values from a replica whose digest won
)

// Read modes: what a gather answers.
const (
	readValues   uint8 = iota // the merged values; stale responders and probes repaired
	readVersions              // found and version only: every leg a digest, no fetch, no repair
)

// Sub-batch phases.
const (
	phaseCollect uint8 = iota // waiting for R answers
	phaseFetch                // waiting for the values digests won
	phaseDone
)

// readLeg is one request the gather sent to one replica. Every leg carries
// its sub-batch's keys.
type readLeg struct {
	kind uint8
	sub  int32
	from core.ServerID
	sent time.Time
	rb   *[]byte // pooled value buffer (data and fetch legs)
	ca   *call   // the answer, kept while the merge or a repair uses it; nil otherwise
}

// counted reports whether the leg counts toward R.
func (l *readLeg) counted() bool { return l.kind == legData || l.kind == legDigest }

// readSub is one replica group's slice of the gather: keys[lo:hi], read from
// groups[glo:ghi] through the selector of its first key's shard.
type readSub struct {
	lo, hi, glo, ghi int32
	gi               int32 // ring group index
	sel              *core.Client
	// R, the answers counted toward it, the data and digest legs not yet
	// answered, and the fetch legs not yet answered.
	need, ok, inflight, fetches int32
	phase                       uint8
	hedged                      core.ServerID
}

// readGather is the in-flight state of one coordinated read. It is pooled,
// and every slice in it keeps its capacity across lives.
type readGather struct {
	n      *Node
	cl     uint8
	mode   uint8
	status uint8 // a failed sub-batch's status
	probed bool  // a probe went out: the gather holds n.wg until recycled

	keys   []string // sub-batch order, views of arena
	arena  []byte
	at     []int32 // client position -> index into keys
	subs   []readSub
	groups []core.ServerID
	legs   []readLeg
	live   int // sub-batches not yet decided

	// Per key: the leg holding the merged answer (-1: absent) and its version.
	wleg []int32
	wver []uint64

	ev   chan *call
	mu   sync.Mutex
	open bool // the owner is listening on ev
	refs atomic.Int32
}

var readGatherPool = sync.Pool{New: func() any { return new(readGather) }}

// newReadGather draws a gather for keys at level cl in the given read mode
// and partitions them. The keys are copied into the gather, so the caller's
// may alias a frame or a parse buffer. The caller runs it and then releases
// it.
func (n *Node) newReadGather(cl uint8, keys []string, mode uint8) *readGather {
	g := readGatherPool.Get().(*readGather)
	g.n, g.cl, g.mode, g.open = n, cl, mode, true
	g.refs.Store(1)
	n.coord.Add(uint64(len(keys)))
	g.partition(n.topo.Load(), keys)
	return g
}

// partition lays the keys out by replica group of the read ring, in client
// order within each sub-batch, copying them into the arena. It allocates
// nothing per key: only slices short of capacity grow.
func (g *readGather) partition(t *topology, keys []string) {
	r := t.readRing()
	g.at = resize(g.at, len(keys))
	total := 0
	for i, k := range keys {
		tok := ring.Token(keyBytes(k))
		gi, s := int32(r.GroupIndexFor(tok)), 0
		for s < len(g.subs) && g.subs[s].gi != gi {
			s++
		}
		if s == len(g.subs) {
			glo := len(g.groups)
			g.groups = append(g.groups, r.ReplicasForToken(tok, g.groups[glo:])...)
			g.subs = append(g.subs, readSub{glo: int32(glo), ghi: int32(len(g.groups)),
				gi: gi, sel: g.n.selFor(k), hedged: -1})
		}
		g.subs[s].hi++ // a count until the layout below
		g.at[i] = int32(s)
		total += len(k)
	}
	off := int32(0)
	for s := range g.subs {
		sb := &g.subs[s]
		sb.lo, sb.hi, off = off, off, off+sb.hi
		sb.need = int32(Level(g.cl).required(int(sb.ghi - sb.glo)))
	}
	if cap(g.arena) < total {
		g.arena = make([]byte, 0, total)
	}
	arena := g.arena[:0]
	g.keys = resize(g.keys, len(keys))
	for i, k := range keys {
		sb := &g.subs[g.at[i]]
		at := len(arena)
		arena = append(arena, k...) // within capacity: earlier views stay put
		g.keys[sb.hi] = pooledString(arena[at:])
		g.at[i] = sb.hi
		sb.hi++
	}
	g.arena = arena
	g.wleg = resize(g.wleg, len(keys))
	g.wver = resize(g.wver, len(keys))
}

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (g *readGather) group(sb *readSub) []core.ServerID { return g.groups[sb.glo:sb.ghi] }

// value is the merged answer for keys[j]: the payload (valid until release;
// empty for a version-only gather), its version, and whether it was found.
func (g *readGather) value(j int32) ([]byte, uint64, bool) {
	w := g.wleg[j]
	if w < 0 {
		return nil, 0, false
	}
	l := &g.legs[w]
	ca, x := l.ca, j-g.subs[l.sub].lo
	return ca.bbuf[ca.boffs[x]:ca.boffs[x+1]], g.wver[j], true
}

// run drives the gather to a decision on every sub-batch and stops listening
// — legs still in flight settle themselves — then repairs stale responders.
func (g *readGather) run() {
	capacity := 3 * len(g.groups) // per replica: a counted leg, a probe, a fetch
	if cap(g.ev) < capacity {
		g.ev = make(chan *call, capacity)
	}
	g.live = len(g.subs)
	for si := range g.subs {
		g.start(si)
	}
	g.wait()
	g.mu.Lock()
	g.open = false
	g.mu.Unlock()
	for len(g.ev) > 0 {
		g.refs.Add(-1) // the owner's own reference keeps the gather alive
		g.settle(<-g.ev)
	}
	if g.mode != readVersions {
		g.repair()
	}
}

// release drops a reference: the owner's once the answer has been consumed,
// an in-flight leg's once it settled, a probe write-back's once it answered.
func (g *readGather) release() {
	if g.refs.Add(-1) == 0 {
		g.recycle()
	}
}

// recycle returns the kept answers and the gather to their pools. It runs
// after the last reference is gone: no leg and no reader can touch it.
func (g *readGather) recycle() {
	for i := range g.legs {
		if l := &g.legs[i]; l.ca != nil {
			g.drop(l, l.ca)
		}
		g.legs[i] = readLeg{}
	}
	if cap(g.arena) > 64<<10 {
		g.arena, g.keys = nil, nil // one huge batch must not pin its keys for good
	}
	if g.probed {
		g.n.wg.Done()
	}
	g.keys, g.legs, g.subs, g.groups = g.keys[:0], g.legs[:0], g.subs[:0], g.groups[:0]
	g.n, g.status, g.probed = nil, wire.StatusOK, false
	readGatherPool.Put(g)
}

// start admits sub-batch si — one rate token for the ranked group — and
// dispatches its data read (a digest when only versions are asked for), its
// R-1 digests and, with the configured probability, a probe of every other
// replica, the coordinator's own included. Probes keep the feedback for
// replicas the ranker stopped choosing fresh, so a recovered replica is
// noticed, and find the stale replicas read repair heals. A gather that
// probes holds the node's WaitGroup until it is recycled, so a probe that
// settles after the read answered may still start its write-back.
func (g *readGather) start(si int) {
	n := g.n
	sb := &g.subs[si]
	group, nk := g.group(sb), int(sb.hi-sb.lo)
	now := time.Now()
	target, ok, retryAt := sb.sel.PickBatch(group, nk, now.UnixNano())
	if !ok {
		target = n.backpressure(sb.sel, group, nk, now, retryAt)
	}
	kind := legData
	if g.mode == readVersions {
		kind = legDigest
	}
	var xbuf [8]core.ServerID
	ex := append(xbuf[:0], target)
	g.send(si, kind, target)
	for sb.inflight < sb.need {
		s, ok := sb.sel.PickNextN(group, ex, nk, time.Now().UnixNano())
		if !ok {
			break
		}
		ex = append(ex, s)
		g.send(si, legDigest, s)
	}
	if n.cfg.ReadRepair <= 0 {
		return
	}
	n.rngMu.Lock()
	probe := n.rng.Float64() < n.cfg.ReadRepair
	n.rngMu.Unlock()
	if probe && !g.probed {
		g.probed = true
		n.wg.Add(1)
	}
	for probe {
		s, ok := sb.sel.PickNextN(group, ex, nk, time.Now().UnixNano())
		if !ok {
			return
		}
		ex = append(ex, s)
		g.send(si, legProbe, s)
	}
}

// backpressure waits for a rate token once every replica of group was over
// rate for an nk-key request at start (retryAt: when a token frees up),
// bounded by the configured timeout. Then it fails open: the ranker's current
// best without a token, so the request cannot starve, and timeout traffic
// still spreads by replica quality instead of piling onto one server.
func (n *Node) backpressure(sel *core.Client, group []core.ServerID, nk int, start time.Time, retryAt int64) core.ServerID {
	n.waited.Add(1)
	deadline := start.Add(n.cfg.BackpressureTimeout)
	for {
		time.Sleep(time.Duration(retryAt-time.Now().UnixNano()) + 100*time.Microsecond)
		now := time.Now()
		if now.After(deadline) {
			s, _ := sel.PickBestN(group, nk, now.UnixNano())
			return s
		}
		s, ok, next := sel.PickBatch(group, nk, now.UnixNano())
		if ok {
			return s
		}
		retryAt = next
	}
}

// tried appends the replicas sub-batch si already sent a counted leg to.
func (g *readGather) tried(si int, dst []core.ServerID) []core.ServerID {
	for i := range g.legs {
		if l := &g.legs[i]; int(l.sub) == si && l.counted() {
			dst = append(dst, l.from)
		}
	}
	return dst
}

// send records a leg of sub-batch si toward replica s and puts it on its
// way: a local leg is served right here, a remote leg on an established link
// goes out as an async call, and what can block — a local leg behind a
// storage delay, which a hedge must be able to race, or a leg that needs a
// dial — runs on a goroutine of its own. Every leg resolves through arrive.
func (g *readGather) send(si int, kind uint8, s core.ServerID) {
	n := g.n
	sb := &g.subs[si]
	keys, li := g.keys[sb.lo:sb.hi], len(g.legs)
	digest := kind == legDigest || kind == legProbe
	c := getBatchCall(true, nil)
	c.rg, c.leg = g, int32(li)
	count, rb := &n.digestReads, (*[]byte)(nil)
	if !digest {
		count, rb = &n.replicaReads, getBuf()
		c.dst = (*rb)[:0]
	}
	if kind == legFetch {
		count = &n.digestFetches
	}
	count.Add(uint64(len(keys)))
	g.legs = append(g.legs, readLeg{kind: kind, sub: int32(si), from: s, sent: time.Now(), rb: rb})
	if kind == legData || kind == legDigest {
		sb.inflight++
	}
	g.refs.Add(1)
	if s == n.id && n.inlineLocalReads() {
		n.serveLocalLeg(c, keys, digest)
		g.arrive(c)
		return
	}
	if s != n.id {
		if p, ok := n.peerReady(s); ok {
			g.sendRemote(p, c, keys, digest)
			return
		}
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if s == n.id {
			n.serveLocalLeg(c, keys, digest)
			g.arrive(c)
		} else if p, err := n.peer(s); err != nil {
			c.err = err
			g.arrive(c)
		} else {
			g.sendRemote(p, c, keys, digest)
		}
	}()
}

// sendRemote puts leg c on p as one MsgBatchReadInternal frame, whatever its
// key count.
func (g *readGather) sendRemote(p *rpcConn, c *call, keys []string, digest bool) {
	leg := c.leg
	if err := p.batchReadAsync(c, wire.MsgBatchReadInternal, wire.LevelOne, digest, keys); err != nil {
		c = getCall(false, nil) // the failed send recycled the record
		c.rg, c.leg, c.err = g, leg, err
		g.arrive(c)
	}
}

// arrive delivers a resolved leg: to the owner while it listens, otherwise
// it settles here, on whichever goroutine resolved it.
func (g *readGather) arrive(c *call) {
	g.mu.Lock()
	if g.open {
		g.ev <- c // buffered for every leg that can be in flight
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	g.settle(c)
	g.release()
}

// settle completes a leg whose answer the owner no longer waits for: its
// selector accounting, the read repair of a probe, then its records go back
// to their pools.
func (g *readGather) settle(c *call) {
	l := &g.legs[c.leg]
	if g.account(l, c); l.kind == legProbe && c.err == nil && g.mode == readValues {
		g.healProbe(l, c)
	}
	g.drop(l, c)
}

// account feeds a leg's outcome to its sub-batch's selector: feedback on
// success; on failure the penalty, or an abandon for a probe, which is
// best-effort and must not punish (punishing is the selected path's job). A
// short answer is a failure. Fetches are not ranked, so not accounted.
func (g *readGather) account(l *readLeg, c *call) {
	sb := &g.subs[l.sub]
	nk := int(sb.hi - sb.lo)
	if c.err == nil && len(c.bfound) != nk {
		c.err = errMismatchedResp
	}
	now := time.Now()
	switch {
	case l.kind == legFetch:
	case c.err == nil:
		g.n.accountReadSuccess(sb.sel, l.from, nk, c.bfb, now.Sub(l.sent), now)
	case l.kind == legProbe:
		sb.sel.OnAbandonN(l.from, nk, now.UnixNano())
	default:
		g.n.accountReadFailure(sb.sel, l.from, nk, now)
	}
}

// drop recycles a leg's call record and value buffer.
func (g *readGather) drop(l *readLeg, c *call) {
	if rb := l.rb; rb != nil {
		if c.err == nil && c.bbuf != nil {
			*rb = c.bbuf[:0] // the answer may have regrown the buffer
		}
		putBuf(rb)
	}
	putCall(c)
}

// wait handles legs until every sub-batch is decided, under the read budget
// and, for a foreground read, with the hedge timer armed. The legs already
// in — a local leg is served inline — are handled first: a read they decide
// arms no timer.
func (g *readGather) wait() {
	for g.live > 0 && len(g.ev) > 0 {
		g.onLeg(<-g.ev)
	}
	if g.live == 0 {
		return
	}
	n := g.n
	budget := getTimer(n.cfg.ReadBudget)
	defer putTimer(budget)
	hedge := getTimer(n.hedgeDelay())
	defer putTimer(hedge)
	hedgeC := hedge.C
	for g.live > 0 {
		select {
		case c := <-g.ev:
			g.onLeg(c)
		case <-hedgeC:
			hedgeC = nil
			g.hedge()
		case <-budget.C:
			for si := range g.subs {
				if g.subs[si].phase != phaseDone {
					g.finish(si, wire.StatusTimeout)
				}
			}
		}
	}
}

// serveLocalLeg reads keys from the local store into c's result fields — the
// layout a remote answer arrives in — with the replica-side queue accounting
// and feedback of a served sub-batch. A digest reads versions only.
func (n *Node) serveLocalLeg(c *call, keys []string, digest bool) {
	sh := n.shardOf(keys[0])
	start := n.beginRead(sh, len(keys), time.Now())
	buf := c.dst
	found, offs, vers := c.bfound[:0], append(c.boffs[:0], len(buf)), c.bvers[:0]
	for _, k := range keys {
		var ver uint64
		var ok bool
		if digest {
			ver, ok = n.store.Version(k)
		} else {
			buf, ver, ok = n.store.GetVersioned(buf, k)
		}
		found, vers, offs = append(found, ok), append(vers, ver), append(offs, len(buf))
	}
	c.bfound, c.boffs, c.bvers, c.bbuf = found, offs, vers, buf
	c.bfb = n.finishRead(sh, len(keys), start, time.Now())
}

// onLeg handles one resolved leg on the owner's goroutine: a data or digest
// answer counts toward R while its sub-batch collects, and a failed one fails
// over to the next untried replica with a leg of its own kind. A probe's
// answer is kept for read repair once the read is decided.
func (g *readGather) onLeg(c *call) {
	g.refs.Add(-1) // the owner's own reference keeps the gather alive
	li := int(c.leg)
	l := &g.legs[li]
	si := int(l.sub)
	sb := &g.subs[si]
	if l.kind == legFetch && sb.phase == phaseFetch {
		g.fetched(li, c)
		return
	}
	if l.kind == legProbe {
		if g.account(l, c); c.err != nil || g.mode == readVersions {
			g.drop(l, c)
		} else {
			l.ca = c
		}
		return
	}
	if l.kind == legFetch || sb.phase != phaseCollect {
		g.settle(c) // a straggler past its sub-batch's decision
		return
	}
	g.account(l, c)
	sb.inflight--
	if c.err != nil {
		kind := l.kind
		g.drop(l, c)
		var xbuf [8]core.ServerID
		if s, ok := sb.sel.PickNextN(g.group(sb), g.tried(si, xbuf[:0]), int(sb.hi-sb.lo), time.Now().UnixNano()); ok {
			g.send(si, kind, s)
		} else if sb.ok+sb.inflight < sb.need {
			g.finish(si, wire.StatusQuorumUnavailable)
		}
		return
	}
	l.ca = c
	if l.from != g.n.id {
		g.n.observeReadRTT(time.Since(l.sent))
	}
	if l.from == sb.hedged {
		g.n.hedgeWins.Add(1)
	}
	if sb.ok++; sb.ok == sb.need {
		g.merge(si)
	}
}

// merge picks each key's newest answer among the R responders, a data
// answer winning a tie. A replica whose digest won keys is then asked for the
// sub-batch's values.
func (g *readGather) merge(si int) {
	sb := &g.subs[si]
	for j := sb.lo; j < sb.hi; j++ {
		x := j - sb.lo
		best, ver := int32(-1), uint64(0)
		for i := range g.legs {
			l := &g.legs[i]
			if int(l.sub) != si || l.ca == nil || !l.counted() || !l.ca.bfound[x] {
				continue
			}
			if v := l.ca.bvers[x]; best < 0 || v > ver || (v == ver && l.kind == legData) {
				best, ver = int32(i), v
			}
		}
		g.wleg[j], g.wver[j] = best, ver
		if best < 0 || g.legs[best].kind != legDigest || g.mode == readVersions {
			continue
		}
		from := g.legs[best].from
		if !g.any(si, func(l *readLeg) bool { return l.kind == legFetch && l.from == from }) {
			sb.phase = phaseFetch
			sb.fetches++
			g.send(si, legFetch, from)
		}
	}
	if sb.fetches == 0 {
		g.finish(si, wire.StatusOK)
	}
}

// any reports whether some leg of sub-batch si satisfies f.
func (g *readGather) any(si int, f func(l *readLeg) bool) bool {
	for i := range g.legs {
		if l := &g.legs[i]; int(l.sub) == si && f(l) {
			return true
		}
	}
	return false
}

// fetched lands a fetch: every key its replica's digest won takes the fetched
// answer. A key the replica no longer has was deleted since its digest, so
// the read reports it absent. A failed fetch fails the sub-batch.
func (g *readGather) fetched(li int, c *call) {
	l := &g.legs[li]
	si := int(l.sub)
	sb := &g.subs[si]
	sb.fetches--
	if g.account(l, c); c.err != nil {
		g.drop(l, c)
		g.finish(si, wire.StatusQuorumUnavailable)
		return
	}
	l.ca = c
	for j := sb.lo; j < sb.hi; j++ {
		if w := g.wleg[j]; w >= 0 && g.legs[w].kind == legDigest && g.legs[w].from == l.from {
			g.wleg[j], g.wver[j] = int32(li), c.bvers[j-sb.lo]
			if !c.bfound[j-sb.lo] {
				g.wleg[j] = -1
			}
		}
	}
	if sb.fetches == 0 {
		g.finish(si, wire.StatusOK)
	}
}

// finish decides sub-batch si. A failed one reports every key absent, sets
// the gather's status (a point read's verdict) and, above CL=ONE, counts one
// quorum failure.
func (g *readGather) finish(si int, status uint8) {
	sb := &g.subs[si]
	sb.phase = phaseDone
	g.live--
	if status == wire.StatusOK {
		return
	}
	for j := sb.lo; j < sb.hi; j++ {
		g.wleg[j] = -1
	}
	g.status = status
	if g.cl != wire.LevelOne {
		g.n.quorumFails.Add(1)
	}
}

// hedge fires once the adaptive delay expired: every sub-batch still short of
// R answers gets one more leg, to its next-ranked untried replica — a data
// read while no data answer is in, a digest otherwise.
func (g *readGather) hedge() {
	var xbuf [8]core.ServerID
	for si := range g.subs {
		sb := &g.subs[si]
		if sb.phase != phaseCollect {
			continue
		}
		kind := legData
		if g.mode != readValues || g.any(si, func(l *readLeg) bool { return l.kind == legData && l.ca != nil }) {
			kind = legDigest
		}
		if s, ok := sb.sel.PickHedgeN(g.group(sb), g.tried(si, xbuf[:0]), int(sb.hi-sb.lo), time.Now().UnixNano()); ok {
			sb.hedged = s
			g.send(si, kind, s)
		}
	}
}

// repair writes each key's winning version back to every responder that
// answered it older or absent — one guarded write per stale replica, all at
// once — and returns when they answered, so the client never observes a
// quorum still divergent after its read. The probes that answered while the
// owner listened are repaired too, in the background. The replica-side
// guard makes a write-back racing a newer write a no-op.
func (g *readGather) repair() {
	var wg *sync.WaitGroup // allocated only when a responder is stale
	for i := range g.legs {
		l := &g.legs[i]
		switch {
		case l.ca == nil || l.kind == legFetch:
		case l.kind == legProbe:
			g.healProbe(l, l.ca)
		default:
			keys, vers, vals := g.stale(l, l.ca)
			if keys == nil {
				continue
			}
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			w, s := wg, l.from // the closure copies w; wg itself stays on the stack
			w.Add(1)
			g.n.wg.Add(1)
			go func() {
				defer w.Done()
				defer g.n.wg.Done()
				g.n.repairKeys(s, keys, vers, vals)
			}()
		}
	}
	if wg != nil {
		wg.Wait()
	}
}

// healProbe writes the read's answer back, in the background, to probe l's
// replica for every key it answered (in c) older or absent. The write-back
// holds a reference, so the winning values outlive the read. A replica that
// also answered a counted leg is the foreground repair's.
func (g *readGather) healProbe(l *readLeg, c *call) {
	if g.any(int(l.sub), func(r *readLeg) bool { return r.from == l.from && r.ca != nil && r.counted() }) {
		return
	}
	keys, vers, vals := g.stale(l, c)
	if keys == nil {
		return
	}
	g.refs.Add(1)
	s := l.from
	go func() {
		g.n.repairKeys(s, keys, vers, vals)
		g.release()
	}()
}

// stale lists the keys of leg l's sub-batch that its replica answered (in c)
// older than the merged answer or not at all, with the winning versions and
// values: what a write-back to it carries. The keys are views into the
// gather's arena, which outlives the write-back (the foreground repair runs
// before release, a probe's holds a reference); the store copies what it
// keeps.
func (g *readGather) stale(l *readLeg, c *call) (keys []string, vers []uint64, vals [][]byte) {
	sb := &g.subs[l.sub]
	for j := sb.lo; j < sb.hi; j++ {
		x := j - sb.lo
		val, ver, ok := g.value(j)
		if !ok || g.legs[g.wleg[j]].from == l.from || (c.bfound[x] && c.bvers[x] >= ver) {
			continue
		}
		keys, vers, vals = append(keys, g.keys[j]), append(vers, ver), append(vals, val)
	}
	return keys, vers, vals
}

// respondBatchRead runs a client batch read's gather and enqueues the
// response: every found value, its version prefix rejoined to the payload,
// streamed into the frame in client key order.
func (n *Node) respondBatchRead(cw *connWriter, id uint64, g *readGather) {
	g.run()
	fb := getBuf()
	b, mark := wire.BeginBatchReadResp((*fb)[:0], id)
	var err error
	for i := range g.at {
		b = wire.BeginBatchReadItem(b, &mark)
		val, ver, ok := g.value(g.at[i])
		if ok {
			b = lsm.AppendVersioned(b, ver, val)
		}
		if b, err = wire.FinishBatchReadItem(b, &mark, ok); err != nil {
			break
		}
	}
	if err == nil {
		b, err = wire.FinishBatchReadResp(b, mark, n.feedback())
	}
	g.release()
	if err != nil {
		// The gathered response cannot be framed (total values overflow
		// MaxFrame — reachable, unlike the point path, because MaxBatchKeys
		// × MaxValueLen exceeds it): sever so the client's call fails fast
		// instead of waiting forever on a silently dropped response.
		putBuf(fb)
		cw.sever(err)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// respondCoordRead runs a client point read's gather — a batch of one, at
// the request's level — and enqueues the response, the merged value
// appended straight onto the open frame.
func (n *Node) respondCoordRead(cw *connWriter, id uint64, g *readGather) {
	fb := getBuf()
	b, mark := wire.BeginReadResp((*fb)[:0], id)
	b, found, status := g.answer(b)
	b, err := wire.FinishReadResp(b, mark, found, status, n.feedback())
	if err != nil {
		putBuf(fb)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// pointRead reads one key through the ladder — a batch of one — in the given
// mode; see answer.
func (n *Node) pointRead(cl uint8, key string, dst []byte, mode uint8) ([]byte, bool, uint8) {
	keys := [1]string{key}
	return n.newReadGather(cl, keys[:], mode).answer(dst)
}

// answer runs a one-key gather and releases it, answering with the merged
// value appended to dst (its version prefix rejoined; the prefix alone for
// readVersions), the found flag and the status.
func (g *readGather) answer(dst []byte) ([]byte, bool, uint8) {
	g.run()
	val, ver, found := g.value(g.at[0])
	if found {
		dst = lsm.AppendVersioned(dst, ver, val)
	}
	status := g.status
	g.release()
	return dst, found, status
}
