package kvstore

import (
	"sync"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/ring"
	"c3/internal/wire"
)

// This file is the coordinator half of the batch read path (MultiGet):
// scatter-gather over replica-group sub-batches. Batch writes (MultiPut) go
// through the one write coordinator, coordinateWrite in writepath.go, which
// treats a point write as a batch of one.
//
// A client batch of K keys is partitioned by the ring into at most
// min(K, groups) sub-batches. Each sub-batch is ranked and admitted through
// the shared selector as ONE rate-limited RPC carrying n keys — the limiter
// paces frames, the ranker's outstanding accounting moves by n (PickBatch) —
// and coalesced into one MsgBatchReadInternal frame to the chosen replica:
// one pooled call record, one enqueue, one flush opportunity. Sub-batches
// scatter concurrently; the gather assembles per-key results in client
// order.
//
// Stragglers reuse the PR 3 escalation ladder per sub-batch: an adaptive
// hedge to the next-ranked untried replica after srtt+3.5·rttvar, immediate
// ranked failover on RPC failure, and the configured ReadBudget backstopping
// the whole sub-batch. Accounting preserves the zero-residual invariant with
// batch weights: every PickBatch/PickHedgeN/PickNextN of n keys is balanced
// by exactly one OnResponseN (real feedback or the failure penalty, weight n)
// or OnAbandonN (own shutdown).

// subBatch is one replica group's slice of a client batch read: the keys
// bound for that group, their positions in the client batch, and — once the
// scatter resolves — the per-key results.
type subBatch struct {
	group []core.ServerID
	keys  []string
	pos   []int

	// sel is the shard selector the sub-batch dispatches and accounts
	// through — the shard of the sub-batch's first key. Sub-batches
	// partition by replica group, not by shard, so this is an attribution
	// choice, the same one beginBatchRead makes for replica-side queue
	// accounting.
	sel *core.Client

	// Read results: key j's value is (*vbuf)[offs[j]:offs[j+1]] when
	// found[j], stored at version vers[j] — the payload split from its
	// version prefix, re-joined at the gather. A nil found means the
	// sub-batch failed wholesale (every replica down or budget exhausted):
	// every key reports not-found.
	found []bool
	offs  []int
	vers  []uint64
	vbuf  *[]byte
}

// subRef locates one client-batch key inside the partition.
type subRef struct {
	sb *subBatch
	j  int
}

// partitionBatch splits keys by replica group of the topology's read ring,
// preserving client order within each sub-batch, and returns the per-key
// back-references for the gather.
func (n *Node) partitionBatch(t *topology, keys []string) ([]*subBatch, []subRef) {
	r := t.readRing()
	where := make([]subRef, len(keys))
	byGroup := make([]*subBatch, r.Nodes())
	subs := make([]*subBatch, 0, 4)
	for i, k := range keys {
		tok := ring.Token([]byte(k))
		gi := r.GroupIndexFor(tok)
		sb := byGroup[gi]
		if sb == nil {
			sb = &subBatch{group: r.ReplicasForToken(tok, nil), sel: n.selFor(k)}
			byGroup[gi] = sb
			subs = append(subs, sb)
		}
		sb.keys = append(sb.keys, k)
		sb.pos = append(sb.pos, i)
		where[i] = subRef{sb, len(sb.keys) - 1}
	}
	return subs, where
}

// batchOutcome is one replica's resolution within a sub-batch's race.
type batchOutcome struct {
	from  core.ServerID
	found []bool
	offs  []int
	vers  []uint64
	buf   *[]byte // pooled buffer backing the values; the consumer recycles it
	rtt   time.Duration
	err   error
}

// localBatchReadInto serves a sub-batch against the local store, packing
// value payloads into buf with offsets and their versions alongside — the
// coordinator-side result layout shared with remote sub-batch responses
// (which arrive already split). Queue accounting and feedback weight are the
// batch size (beginBatchRead/finishBatchRead).
func (n *Node) localBatchReadInto(buf []byte, keys []string) ([]bool, []int, []uint64, []byte, wire.Feedback) {
	sh := n.shardOf(keys[0])
	start := n.beginBatchRead(sh, len(keys))
	found := make([]bool, len(keys))
	vers := make([]uint64, len(keys))
	offs := make([]int, len(keys)+1)
	for i, k := range keys {
		buf, vers[i], found[i] = n.store.GetVersioned(buf, k)
		offs[i+1] = len(buf)
	}
	return found, offs, vers, buf, n.finishBatchRead(sh, start, len(keys))
}

// accountBatchReadSuccess feeds a sub-batch's piggybacked feedback to the
// selector with weight nk — the single sample describes the post-batch server
// state, and the replica just shed nk outstanding reads.
func (n *Node) accountBatchReadSuccess(sel *core.Client, s core.ServerID, nk int, fb wire.Feedback, rtt time.Duration, now time.Time) {
	sel.OnResponseN(s, nk, core.Feedback{
		QueueSize:   fb.QueueSize,
		ServiceTime: time.Duration(fb.ServiceNs),
	}, rtt, now.UnixNano())
}

// accountBatchReadFailure records a failed sub-batch with the selector: our
// own shutdown abandons the nk keys, as does a failure toward a server the
// topology has retired (see accountReadFailure), while a real failure of a
// live member feeds the punishing penalty with batch weight.
func (n *Node) accountBatchReadFailure(sel *core.Client, s core.ServerID, nk int, now time.Time) {
	if n.isClosed() || !n.topo.Load().serves(s) {
		sel.OnAbandonN(s, nk, now.UnixNano())
	} else {
		sel.OnResponseN(s, nk, core.Feedback{QueueSize: failPenaltyQueue,
			ServiceTime: failPenaltyRTT}, failPenaltyRTT, now.UnixNano())
	}
}

// raceBatchRead fires one sub-batch read toward s — local or remote — as an
// independent racer reporting into ch. Like raceRead, the racer performs its
// own selector accounting as it resolves, so the OnSendN recorded at dispatch
// is balanced no matter whether the sub-batch ladder is still listening.
// ch must be buffered for the whole race so a late loser never blocks.
func (n *Node) raceBatchRead(sel *core.Client, s core.ServerID, keys []string, ch chan<- batchOutcome) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		nk := len(keys)
		rb := getBuf()
		sent := time.Now()
		if s == n.id {
			found, offs, vers, buf, fb := n.localBatchReadInto((*rb)[:0], keys)
			*rb = buf
			now := time.Now()
			rtt := now.Sub(sent)
			n.accountBatchReadSuccess(sel, s, nk, fb, rtt, now)
			ch <- batchOutcome{from: s, found: found, offs: offs, vers: vers, buf: rb, rtt: rtt}
			return
		}
		var ca *call
		p, err := n.peer(s)
		if err == nil {
			ca, err = p.batchRead(wire.MsgBatchReadInternal, wire.LevelOne, keys, (*rb)[:0])
		}
		if err == nil && len(ca.bfound) != nk {
			putCall(ca)
			ca = nil // released: a later touch must fault, not race the pool
			err = errMismatchedResp
		}
		now := time.Now()
		if err != nil {
			putBuf(rb)
			n.accountBatchReadFailure(sel, s, nk, now)
			ch <- batchOutcome{from: s, err: err}
			return
		}
		*rb = ca.bbuf
		found := append(make([]bool, 0, nk), ca.bfound...)
		offs := append(make([]int, 0, nk+1), ca.boffs...)
		vers := append(make([]uint64, 0, nk), ca.bvers...)
		fb := ca.bfb
		putCall(ca)
		rtt := now.Sub(sent)
		n.accountBatchReadSuccess(sel, s, nk, fb, rtt, now)
		ch <- batchOutcome{from: s, found: found, offs: offs, vers: vers, buf: rb, rtt: rtt}
	}()
}

// reapBatch drains the remaining racers of a resolved sub-batch in the
// background, recycling their value buffers (their selector accounting
// happens inside raceBatchRead).
func (n *Node) reapBatch(ch <-chan batchOutcome, pending int) {
	if pending <= 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for i := 0; i < pending; i++ {
			putBuf((<-ch).buf)
		}
	}()
}

// maybeBatchReadRepair is the batch counterpart of maybeReadRepair: with the
// configured probability, the sub-batch is also read at every unselected
// replica of its group, keeping the coordinator's feedback for replicas it
// has stopped selecting fresh even under batch-only workloads. Probe
// accounting carries batch weights and pairs every OnSendN with exactly one
// OnResponseN (success) or OnAbandonN (failure — a probe is best-effort and
// must not poison the estimators or leak outstanding counts).
func (n *Node) maybeBatchReadRepair(sel *core.Client, keys []string, group []core.ServerID, target core.ServerID) {
	if n.cfg.ReadRepair <= 0 {
		return
	}
	n.rngMu.Lock()
	repair := n.rng.Float64() < n.cfg.ReadRepair
	n.rngMu.Unlock()
	if !repair {
		return
	}
	nk := len(keys)
	for _, s := range group {
		if s == target || s == n.id {
			continue
		}
		s := s
		sel.OnSendN(s, nk, time.Now().UnixNano())
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			rb := getBuf()
			sent := time.Now()
			var ca *call
			p, err := n.peer(s)
			if err == nil {
				ca, err = p.batchRead(wire.MsgBatchReadInternal, wire.LevelOne, keys, (*rb)[:0])
			}
			if err == nil {
				*rb = ca.bbuf
				fb := ca.bfb
				putCall(ca)
				n.accountBatchReadSuccess(sel, s, nk, fb, time.Since(sent), time.Now())
			} else {
				sel.OnAbandonN(s, nk, time.Now().UnixNano())
			}
			putBuf(rb)
		}()
	}
}

// runSubBatch executes one sub-batch's read ladder: backpressure-admitted
// ranked dispatch, adaptive hedge, ranked failover, read budget. On success
// the results land in sb; on wholesale failure sb.found stays nil and every
// key reports not-found.
func (n *Node) runSubBatch(sb *subBatch) {
	nk := len(sb.keys)
	deadline := time.Now().Add(n.cfg.BackpressureTimeout)
	var target core.ServerID
	waited := false
	for {
		now := time.Now().UnixNano()
		s, ok, retryAt := sb.sel.PickBatch(sb.group, nk, now)
		if ok {
			target = s
			break
		}
		waited = true
		if time.Now().After(deadline) {
			// Fail open like the point path: ranked best, no token.
			target, _ = sb.sel.PickBestN(sb.group, nk, now)
			break
		}
		time.Sleep(time.Duration(retryAt-now) + 100*time.Microsecond)
	}
	if waited {
		n.waited.Add(1)
	}
	n.maybeBatchReadRepair(sb.sel, sb.keys, sb.group, target)

	// Inline local fast path: an in-memory sub-batch with no configured delay
	// has nothing a hedge could rescue; serve it on this goroutine.
	if target == n.id && n.inlineLocalReads() {
		rb := getBuf()
		sent := time.Now()
		found, offs, vers, buf, fb := n.localBatchReadInto((*rb)[:0], sb.keys)
		*rb = buf
		now := time.Now()
		n.accountBatchReadSuccess(sb.sel, target, nk, fb, now.Sub(sent), now)
		sb.found, sb.offs, sb.vers, sb.vbuf = found, offs, vers, rb
		return
	}

	var triedBuf [8]core.ServerID
	tried := append(triedBuf[:0], target)
	ch := make(chan batchOutcome, len(sb.group))
	n.raceBatchRead(sb.sel, target, sb.keys, ch)
	pending := 1
	hedged := core.ServerID(-1)

	budget := getTimer(n.cfg.ReadBudget)
	defer putTimer(budget)
	var hedgeC <-chan time.Time
	if !n.cfg.Hedge.Disabled && len(sb.group) > 1 {
		ht := getTimer(n.hedgeDelay())
		defer putTimer(ht)
		hedgeC = ht.C
	}
	for {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				if out.from == hedged {
					n.hedgeWins.Add(1)
				}
				n.observeReadRTT(out.rtt)
				sb.found, sb.offs, sb.vers, sb.vbuf = out.found, out.offs, out.vers, out.buf
				n.reapBatch(ch, pending)
				return
			}
			// Ranked failover: replace the dead sub-batch dispatch with the
			// next-best untried replica (no hedge count — it duplicates
			// nothing).
			if s, ok := sb.sel.PickNextN(sb.group, tried, nk, time.Now().UnixNano()); ok {
				tried = append(tried, s)
				n.raceBatchRead(sb.sel, s, sb.keys, ch)
				pending++
			} else if pending == 0 {
				return // every replica failed
			}
		case <-hedgeC:
			hedgeC = nil
			if s, ok := sb.sel.PickHedgeN(sb.group, tried, nk, time.Now().UnixNano()); ok {
				hedged = s
				tried = append(tried, s)
				n.raceBatchRead(sb.sel, s, sb.keys, ch)
				pending++
			}
		case <-budget.C:
			// Budget exhausted: the sub-batch reports not-found. In-flight
			// racers account for themselves and are reaped in the background.
			n.reapBatch(ch, pending)
			return
		}
	}
}

// runSubBatchQuorum is the quorum ladder for one read sub-batch: dispatch to
// every replica of the group — the ranked best first, through the same
// backpressure gate as a ONE sub-batch — collect the level's R responses,
// merge per key by highest version, and synchronously repair responders that
// answered older before returning. Dispatching to all N subsumes hedging;
// the read budget backstops the collection, and a sub-batch that cannot
// gather R responses fails wholesale (sb.found nil: every key not-found),
// mirroring the ONE path's budget-exhaustion degradation.
func (n *Node) runSubBatchQuorum(sb *subBatch, need int) {
	nk := len(sb.keys)
	deadline := time.Now().Add(n.cfg.BackpressureTimeout)
	var target core.ServerID
	waited := false
	for {
		now := time.Now().UnixNano()
		s, ok, retryAt := sb.sel.PickBatch(sb.group, nk, now)
		if ok {
			target = s
			break
		}
		waited = true
		if time.Now().After(deadline) {
			target, _ = sb.sel.PickBestN(sb.group, nk, now)
			break
		}
		time.Sleep(time.Duration(retryAt-now) + 100*time.Microsecond)
	}
	if waited {
		n.waited.Add(1)
	}

	ch := make(chan batchOutcome, len(sb.group))
	now := time.Now().UnixNano()
	for _, s := range sb.group {
		if s != target {
			sb.sel.OnSendN(s, nk, now)
		}
	}
	n.raceBatchRead(sb.sel, target, sb.keys, ch)
	for _, s := range sb.group {
		if s != target {
			n.raceBatchRead(sb.sel, s, sb.keys, ch)
		}
	}

	votes := make([]batchOutcome, 0, len(sb.group))
	pending := len(sb.group)
	fails := 0
	budget := getTimer(n.cfg.ReadBudget)
	defer putTimer(budget)
collect:
	for len(votes) < need {
		select {
		case out := <-ch:
			pending--
			if out.err != nil {
				if fails++; fails > len(sb.group)-need {
					break collect
				}
				continue
			}
			n.observeReadRTT(out.rtt)
			votes = append(votes, out)
		case <-budget.C:
			break collect
		}
	}
	n.reapBatch(ch, pending)
	if len(votes) < need {
		n.quorumFails.Add(1)
		for _, v := range votes {
			putBuf(v.buf)
		}
		return // wholesale failure: sb.found stays nil
	}

	// Per-key merge: the highest version among responders that found the key
	// wins; then repair every responder that answered older or absent —
	// blocking, so the client never observes a quorum still divergent after
	// its read, and version-guarded, so a concurrent newer write survives.
	rb := getBuf()
	merged := (*rb)[:0]
	sb.found = make([]bool, nk)
	sb.vers = make([]uint64, nk)
	sb.offs = make([]int, nk+1)
	for j := 0; j < nk; j++ {
		win := -1
		for i := range votes {
			if !votes[i].found[j] {
				continue
			}
			if win < 0 || votes[i].vers[j] > votes[win].vers[j] {
				win = i
			}
		}
		if win >= 0 {
			w := &votes[win]
			val := (*w.buf)[w.offs[j]:w.offs[j+1]]
			sb.found[j] = true
			sb.vers[j] = w.vers[j]
			merged = append(merged, val...)
			for i := range votes {
				v := &votes[i]
				if v.from == w.from || (v.found[j] && v.vers[j] >= w.vers[j]) {
					continue
				}
				n.repairReplica(v.from, sb.keys[j], w.vers[j], val)
			}
		}
		sb.offs[j+1] = len(merged)
	}
	*rb = merged
	sb.vbuf = rb
	for _, v := range votes {
		putBuf(v.buf)
	}
}

// coordinateBatchRead is the scatter half of a client batch read: partition
// by replica group, run every sub-batch's ladder — ONE's escalation ladder or
// the level's quorum collection — concurrently, and return the partition for
// the gather. Each key of the batch counts as one coordinated read.
func (n *Node) coordinateBatchRead(cl uint8, keys []string) ([]*subBatch, []subRef) {
	n.coord.Add(uint64(len(keys)))
	subs, where := n.partitionBatch(n.topo.Load(), keys)
	run := n.runSubBatch
	if cl != wire.LevelOne {
		run = func(sb *subBatch) {
			n.runSubBatchQuorum(sb, Level(cl).required(len(sb.group)))
		}
	}
	if len(subs) == 1 {
		run(subs[0])
		return subs, where
	}
	var wg sync.WaitGroup
	for _, sb := range subs {
		sb := sb
		wg.Add(1)
		n.wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.wg.Done()
			run(sb)
		}()
	}
	wg.Wait()
	return subs, where
}

// respondCoordBatchRead coordinates a client batch read and enqueues the
// response: scatter at the requested level, gather, then stream every found
// value — version prefix rejoined to its payload — from the sub-batch result
// buffers into the response frame in client key order.
func (n *Node) respondCoordBatchRead(cw *connWriter, id uint64, cl uint8, keys []string) {
	subs, where := n.coordinateBatchRead(cl, keys)
	fb := getBuf()
	b, mark := wire.BeginBatchReadResp((*fb)[:0], id)
	var err error
	for i := range keys {
		ref := where[i]
		b = wire.BeginBatchReadItem(b, &mark)
		ok := false
		if sb := ref.sb; sb.found != nil && sb.found[ref.j] {
			ok = true
			b = lsm.AppendVersioned(b, sb.vers[ref.j], (*sb.vbuf)[sb.offs[ref.j]:sb.offs[ref.j+1]])
		}
		if b, err = wire.FinishBatchReadItem(b, &mark, ok); err != nil {
			break
		}
	}
	if err == nil {
		b, err = wire.FinishBatchReadResp(b, mark, n.feedback())
	}
	for _, sb := range subs {
		putBuf(sb.vbuf)
	}
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
