package kvstore

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/wire"
)

// Shard-per-core request handling.
//
// The node partitions its hot path by the storage shard of each key (the
// same FNV-1a routing the sharded LSM uses, so a key's queue accounting,
// ranker state, and memtable all live on one shard):
//
//   - Writes are event-driven, through one coordinator for point writes and
//     batches alike (coordinateWrite): a point write is a batch of one. The
//     serve loop partitions the keys by write fan, stamps one version, and
//     charges a pooled writeGather with one leg per (sub-batch, replica).
//     A remote leg goes out as one MsgBatchWriteInternal frame, whatever its
//     key count, completed on its connection's read loop; the local leg goes
//     to the shard writers. The gather counts acks per key and answers the
//     moment every key is decided, from whichever goroutine delivered the
//     deciding leg — onto the client's connection, or to a RESP handler
//     blocked on a channel: sync is async plus a wait. A point write
//     allocates nothing and spawns nothing in steady state.
//   - Every replica write lands through one path (applyFrame, applyLeg): a
//     leg frame, a hint replay, a stream push — read repair's write-back or
//     a page of a key-range move — and the coordinator's own leg alike. Its
//     records are laid out in shard order and each touched shard gets one
//     pooled writeTask. Each shard runs one writer goroutine draining its
//     queue of tasks into a single ApplyMulti — one memtable lock, one WAL
//     commit group per drain — so pipelined writes against one shard share
//     a group commit while never contending with sibling shards' locks or
//     fsyncs. No replica write spawns a goroutine per frame or per leg.
//   - Reads dispatch through a small pool of readWorkers via an unbuffered
//     handoff: a parked worker takes the request with zero allocations; if
//     every worker is busy the request falls back to a spawned goroutine,
//     preserving unlimited read concurrency.

// keyBytes views a key's bytes without copying — for ring hashing, which
// never retains its input.
func keyBytes(k string) []byte {
	if len(k) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(k), len(k))
}

// pooledString views a buffer's bytes as a string, without a copy. The
// caller owns the aliasing discipline: the string must not be retained past
// the buffer's reuse (copy it first — see readGather.partition).
func pooledString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// keyAcks is one key's tally inside a writeGather: the replicas that applied
// it, the ones that did not, and how many misses it absorbs before it can no
// longer reach W (its fan minus W). pos is the key's place in the client's
// request; ok is set, once and under the gather's lock, when it reached W.
type keyAcks struct {
	pos, slack  int32
	ok          bool
	oks, misses int32
}

// writeGather is the in-flight state of one coordinated client write — a
// point write or a batch, which differ only in how many keys they carry.
// The keys sit in sub-batch order (partitionWrite), and every (sub-batch,
// replica) leg reports into complete from wherever it resolves: a peer
// connection's read loop, a shard writer, a leg goroutine. The leg that
// decides the last key answers the client; the last leg to resolve releases
// the value buffer and recycles the gather (hints copy the values
// synchronously inside complete).
type writeGather struct {
	n    *Node
	lvl  Level
	need int32 // W
	ver  uint64
	keys []string
	vals [][]byte
	del  bool    // a point delete: the one write that carries a tombstone
	buf  *[]byte // pooled buffer backing vals

	// The answer route: a WriteResp — a BatchWriteResp with per-key acks when
	// batch is set — encoded onto cw, or, when done is set, the decision
	// handed to a blocked RESP handler. done is buffered(1): the deciding
	// leg never blocks on a slow caller.
	cw    *connWriter
	id    uint64
	batch bool
	done  chan wire.WriteResp

	mu     sync.Mutex
	acks   []keyAcks
	open   int // keys not yet decided
	failed int // keys decided below W

	refs atomic.Int32 // legs not yet resolved

	// Inline per-key storage for a gather of one key: a point write
	// allocates no per-key arrays.
	key1 [1]string
	val1 [1][]byte
	ack1 [1]keyAcks
}

var writeGatherPool = sync.Pool{New: func() any { return new(writeGather) }}

// pointGather draws a gather for a write of one key. val is backed by buf,
// which the gather releases after its last leg.
func pointGather(key string, val []byte, del bool, buf *[]byte) *writeGather {
	g := writeGatherPool.Get().(*writeGather)
	g.key1[0], g.val1[0] = key, val
	g.keys, g.vals, g.del, g.buf = g.key1[:], g.val1[:], del, buf
	return g
}

// batchGather draws a gather for a batch write answered key by key. The
// gather takes keys and vals (it may reorder them, and lastValueWins
// rewrites vals); vals are backed by buf.
func batchGather(keys []string, vals [][]byte, buf *[]byte) *writeGather {
	lastValueWins(keys, vals)
	g := writeGatherPool.Get().(*writeGather)
	g.keys, g.vals, g.buf, g.batch = keys, vals, buf, true
	return g
}

// lastIndexPool recycles lastValueWins's index from key to its last place.
var lastIndexPool = sync.Pool{New: func() any { return make(map[string]int32) }}

// lastValueWins makes every occurrence of a key named more than once in a
// batch carry the key's last value, as Redis MSET does. The batch shares one
// version stamp, so a replica applies a key's first occurrence and its guard
// skips the rest as equal versions: without this, the first value would
// win. Each occurrence stays in the batch and is acked in its own place.
// Linear in the batch, which the caller has bounded (wire.MaxBatchKeys).
func lastValueWins(keys []string, vals [][]byte) {
	if len(keys) < 2 {
		return
	}
	last := lastIndexPool.Get().(map[string]int32)
	for i, k := range keys {
		last[k] = int32(i)
	}
	if len(last) < len(keys) {
		for i, k := range keys {
			vals[i] = vals[last[k]]
		}
	}
	clear(last)
	lastIndexPool.Put(last)
}

// writeSub is one sub-batch of a coordinated write: keys lo..hi of the
// gather, whose write fan is fans[flo:fhi] of the partition.
type writeSub struct{ lo, hi, flo, fhi int }

// partitionWrite splits g's keys by write fan — the set of replicas that take
// the key on topology t, its owners on both rings during a membership window
// (writeGroup) — so keys that share a sub-batch share every replica it goes
// to: no replica is sent a key it owns on neither ring. It lays g.keys and
// g.vals out in sub-batch order and records each key's client position in
// g.acks (whose slack fields it uses as scratch). A point write is a
// partition of one.
func partitionWrite(t *topology, g *writeGather, subs []writeSub, fans []core.ServerID) ([]writeSub, []core.ServerID) {
	var gbuf [8]core.ServerID
	for i, k := range g.keys {
		fan := t.writeGroup(keyBytes(k), gbuf[:0])
		slices.Sort(fan)
		s := 0
		for s < len(subs) && !slices.Equal(fans[subs[s].flo:subs[s].fhi], fan) {
			s++
		}
		if s == len(subs) {
			subs = append(subs, writeSub{flo: len(fans), fhi: len(fans) + len(fan)})
			fans = append(fans, fan...)
		}
		subs[s].hi++ // a count until the layout below
		g.acks[i].pos, g.acks[i].slack = int32(i), int32(s)
	}
	if len(subs) <= 1 {
		return subs, fans
	}
	off := 0
	for s := range subs {
		subs[s].lo, subs[s].hi, off = off, off, off+subs[s].hi
	}
	keys := make([]string, len(g.keys))
	vals := make([][]byte, len(g.keys))
	for i := range g.keys {
		sb := &subs[g.acks[i].slack]
		keys[sb.hi], vals[sb.hi], g.acks[sb.hi].pos = g.keys[i], g.vals[i], int32(i)
		sb.hi++
	}
	g.keys, g.vals = keys, vals
	return subs, fans
}

// coordinateWrite is the one write coordinator, for a point write and a batch
// alike, and it never blocks: the serve loop runs it inline. It partitions
// g's keys by write fan, stamps one version for all of them, and dispatches
// one leg per (sub-batch, replica). Key i is acked once W replicas applied
// it, W being the level's requirement over the read ring's replica count:
// the first genuine success at ONE, ⌊N/2⌋+1 at QUORUM, N at ALL. During a
// membership window the fan also covers the other ring's owners, whose acks
// count while their number does not raise W, so R+W>N holds against quorum
// reads of the read ring. A leg that never reaches its replica banks its
// keys as hints, which never count toward W; and a quorum-level write that
// needs a down replica whose hint queue is full is refused up front
// (bounded handoff debt). The answer goes out on g's route once every key is
// decided.
func (n *Node) coordinateWrite(g *writeGather, lvl Level) {
	t := n.topo.Load()
	g.n, g.lvl = n, lvl
	if len(g.keys) == 1 {
		g.acks = g.ack1[:]
	} else {
		g.acks = make([]keyAcks, len(g.keys))
	}
	var sbuf [8]writeSub
	var fbuf [32]core.ServerID
	subs, fans := partitionWrite(t, g, sbuf[:0], fbuf[:0])
	refused := false
	for _, s := range fans {
		if lvl != One && s != n.id && n.hintFull(s) {
			if _, up := n.peerReady(s); !up {
				refused = true
				break
			}
		}
	}
	if refused || len(subs) == 0 {
		g.failed = len(g.keys)
		g.answer()
		g.release()
		return
	}
	need := lvl.required(t.readRing().RF())
	g.need, g.ver, g.open = int32(need), n.stampVersion(), len(g.keys)
	legs := 0
	for _, sb := range subs {
		fan := sb.fhi - sb.flo
		for i := sb.lo; i < sb.hi; i++ {
			g.acks[i].slack = int32(fan - need)
		}
		legs += fan
	}
	g.refs.Store(int32(legs))
	for _, sb := range subs {
		for _, s := range fans[sb.flo:sb.fhi] {
			g.dispatch(s, sb.lo, sb.hi)
		}
	}
}

// dispatch sends the leg carrying keys lo..hi to replica s. A local leg goes
// to the shard writers and a leg on an established connection goes out as an
// async batch frame, both completing elsewhere; a leg that needs a dial — the
// one that can block — runs as a goroutine, off the serve loop.
func (g *writeGather) dispatch(s core.ServerID, lo, hi int) {
	n := g.n
	if s == n.id {
		n.applyLeg(g, lo, hi)
		return
	}
	if p, ok := n.peerReady(s); ok {
		g.send(p, s, lo, hi)
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		p, err := n.peer(s)
		if err != nil {
			g.complete(s, lo, hi, nil, true)
			return
		}
		g.send(p, s, lo, hi)
	}()
}

// send puts a remote leg on an established connection as one
// MsgBatchWriteInternal frame, whatever its key count; it completes on the
// connection's read loop. A dispatch that never started completes here, as
// a transport failure.
func (g *writeGather) send(p *rpcConn, s core.ServerID, lo, hi int) {
	c := getBatchCall(false, nil)
	c.g, c.from, c.lo, c.hi = g, s, lo, hi
	if err := p.batchWriteAsync(c, wire.MsgBatchWriteInternal, wire.LevelOne, g.ver, g.del, g.keys[lo:hi], g.vals[lo:hi]); err != nil {
		g.complete(s, lo, hi, nil, true)
	}
}

// complete resolves one leg: oks[i-lo] reports whether replica from applied
// key i (nil: none of them). transport marks a leg that never reached its
// replica (connection dead, dial failed): its keys are banked as hints
// before the value buffer can be released. A key that every replica missed
// counts as a write failure here, when its last miss arrives, so a key some
// replica applied never does — however early it fell below W.
func (g *writeGather) complete(from core.ServerID, lo, hi int, oks []bool, transport bool) {
	n := g.n
	if transport {
		n.hintWrite(from, g.keys[lo:hi], g.ver, g.vals[lo:hi], g.del)
	}
	unacked := 0
	g.mu.Lock()
	open := g.open
	for i := lo; i < hi; i++ {
		a := &g.acks[i]
		if oks != nil && oks[i-lo] {
			if a.oks++; a.oks == g.need {
				a.ok = true
				g.open--
			}
			continue
		}
		if a.misses++; a.misses == a.slack+1 {
			g.open-- // below W whatever the remaining legs answer
			g.failed++
		}
		if a.misses == a.slack+g.need {
			unacked++
		}
	}
	answer := open > 0 && g.open == 0
	g.mu.Unlock()
	if unacked > 0 {
		n.writeFails.Add(uint64(unacked))
	}
	if answer {
		g.answer()
	}
	if g.refs.Add(-1) == 0 {
		g.release()
	}
}

// answer sends the decision, once every key is decided. It runs outside the
// lock on a leg that still holds its ref, so the gather cannot be recycled
// under it, and what it reads — failed, each key's pos and ok — is final by
// then. A request that missed its level counts one quorum failure.
func (g *writeGather) answer() {
	n := g.n
	status := wire.StatusOK
	if g.failed > 0 {
		if g.lvl != One {
			n.quorumFails.Add(1)
			status = wire.StatusQuorumUnavailable
		} else if !g.batch {
			status = wire.StatusWriteFailed
		}
	}
	if g.done != nil {
		g.done <- wire.WriteResp{OK: g.failed == 0, Status: status}
		return
	}
	fb := getBuf()
	var b []byte
	var err error
	if g.batch {
		b, err = wire.AppendBatchWriteResp((*fb)[:0], wire.BatchWriteResp{
			ID: g.id, Status: status, OK: g.ackFlags(), FB: n.feedback()})
	} else {
		b, err = wire.AppendWriteResp((*fb)[:0], wire.WriteResp{
			ID: g.id, OK: g.failed == 0, Status: status, FB: n.feedback()})
	}
	if err != nil {
		putBuf(fb)
		g.cw.sever(err)
		return
	}
	*fb = b
	g.cw.enqueue(fb)
}

// ackFlags reports each key's decision in the client's key order.
func (g *writeGather) ackFlags() []bool {
	switch g.failed {
	case 0:
		return allTrue[:len(g.keys)]
	case len(g.keys):
		return allFalse[:len(g.keys)]
	}
	oks := make([]bool, len(g.keys))
	for i := range g.acks {
		oks[g.acks[i].pos] = g.acks[i].ok
	}
	return oks
}

// release runs after the last leg: the value buffer goes back to its pool,
// and the gather with it.
func (g *writeGather) release() {
	putBuf(g.buf)
	*g = writeGather{}
	writeGatherPool.Put(g)
}

// The replica side: one apply path. Every write a node applies for a
// coordinator comes through here, at any key count, from three sources —
// serveConn with a MsgBatchWriteInternal frame (a coordinator's leg or a
// hint replay) or a MsgStreamPush frame (a read repair's write-back or a
// page of a join, rebuild or decommission), and the coordinator with its
// own leg of a gather (applyLeg). The records are laid out in shard order,
// each touched shard gets one pooled task, and each shard's writer folds
// whatever tasks are pending into one ApplyMulti. The frame is acked, or
// the leg completed, when its last task finishes, with an OK flag per key.

// replicaWrite is one write frame or local leg in flight. Pooled; its slices
// keep their capacity across lives.
type replicaWrite struct {
	n     *Node
	keys  []string // shard order
	vers  []uint64
	vals  [][]byte
	pos   []int32 // shard order -> request order
	oks   []bool  // request order
	del   bool    // every record a guarded tombstone
	heal  bool    // a stream push: exempt from the drop-writes fault
	buf   []byte  // a frame's records, copied out of the frame buffer
	offs  []int   // per-shard cursors, scratch of layout
	tasks []writeTask
	open  atomic.Int32 // tasks not yet finished

	// The answer route: a frame is acked on cw under id with the feedback of
	// its first key's shard; a leg completes keys lo.. of g.
	cw      *connWriter
	id      uint64
	fbShard int
	g       *writeGather
	lo      int
}

// writeTask is one replicaWrite's records on shard sh: keys[lo:hi].
type writeTask struct {
	rw         *replicaWrite
	sh, lo, hi int
}

var replicaWritePool = sync.Pool{New: func() any { return new(replicaWrite) }}

// applyFrame lands a MsgBatchWriteInternal frame, every record under its one
// stamp, or a MsgStreamPush frame, whose version-prefixed values each keep
// their own version, and acks it on cw. The records are copied out of the
// frame buffer. A key-range page is counted as it arrives: the progress a
// node waiting for a push watches (see requestPush).
func (n *Node) applyFrame(cw *connWriter, typ uint8, m wire.BatchWriteReq) {
	rw := replicaWritePool.Get().(*replicaWrite)
	rw.n, rw.cw, rw.id, rw.del, rw.heal = n, cw, m.ID, m.Del, typ == wire.MsgStreamPush
	if rw.heal && m.Version == wire.ArcPage {
		n.arcPages.Add(1)
	}
	rw.fbShard = n.shardOf(m.Keys[0])
	rw.layout(m.Keys, m.Version, m.Values, true)
	rw.submit()
}

// applyLeg lands keys lo..hi of g on this node, the coordinator's own leg,
// and completes the leg. The records stay views of the gather's buffer,
// which outlives its legs.
func (n *Node) applyLeg(g *writeGather, lo, hi int) {
	rw := replicaWritePool.Get().(*replicaWrite)
	rw.n, rw.g, rw.lo, rw.del = n, g, lo, g.del
	rw.layout(g.keys[lo:hi], g.ver, g.vals[lo:hi], false)
	rw.submit()
}

// layout lays the records out in shard order under version ver — a stream
// push's versions split off its values — copying every key and value into
// rw.buf when copyOut is set, and cuts one task per touched shard.
func (rw *replicaWrite) layout(keys []string, ver uint64, vals [][]byte, copyOut bool) {
	n := rw.n
	offs := resize(rw.offs, len(n.st)+1)
	clear(offs)
	total := 0
	for i, k := range keys {
		offs[n.shardOf(k)+1]++
		total += len(k) + len(vals[i])
	}
	rw.tasks = rw.tasks[:0]
	for sh := range n.st {
		if offs[sh+1] > 0 {
			rw.tasks = append(rw.tasks, writeTask{rw: rw, sh: sh, lo: offs[sh], hi: offs[sh] + offs[sh+1]})
		}
		offs[sh+1] += offs[sh]
	}
	rw.keys, rw.vers, rw.vals = resize(rw.keys, len(keys)), resize(rw.vers, len(keys)), resize(rw.vals, len(keys))
	rw.pos, rw.oks = resize(rw.pos, len(keys)), resize(rw.oks, len(keys))
	buf := rw.buf[:0]
	if copyOut && cap(buf) < total {
		buf = make([]byte, 0, total) // never regrown below: earlier views stay put
	}
	for i, k := range keys {
		v := vals[i]
		if copyOut {
			at := len(buf)
			buf = append(buf, k...)
			k = pooledString(buf[at:])
			at = len(buf)
			buf = append(buf, v...)
			v = buf[at:len(buf):len(buf)]
		}
		sh := n.shardOf(k)
		at := offs[sh]
		offs[sh]++
		rw.keys[at], rw.vers[at], rw.vals[at], rw.pos[at] = k, ver, v, int32(i)
		if rw.heal {
			rw.vers[at], rw.vals[at] = lsm.SplitVersioned(v)
		}
	}
	rw.buf, rw.offs = buf, offs
}

// submit hands every task to its shard's writer. The write may be answered
// and recycled as soon as its last task is queued, so rw is not touched
// after that.
func (rw *replicaWrite) submit() {
	n, tasks := rw.n, rw.tasks
	rw.open.Store(int32(len(tasks)))
	for i := range tasks {
		n.enqueueWriteTask(&tasks[i])
	}
}

// records is the task's share of the write, in ApplyMulti's columns.
func (t *writeTask) records() ([]string, []uint64, [][]byte, []bool) {
	rw := t.rw
	var dels []bool
	if rw.del {
		dels = allTrue[:t.hi-t.lo]
	}
	return rw.keys[t.lo:t.hi], rw.vers[t.lo:t.hi], rw.vals[t.lo:t.hi], dels
}

// finish records the task's outcome for each of its keys; the write's last
// task to finish answers it.
func (t *writeTask) finish(err error) {
	rw := t.rw
	for i := t.lo; i < t.hi; i++ {
		rw.oks[rw.pos[i]] = err == nil
	}
	if rw.open.Add(-1) == 0 {
		rw.answer()
	}
}

// answer acks the frame, or completes the leg, and recycles the write.
func (rw *replicaWrite) answer() {
	n := rw.n
	if g := rw.g; g != nil {
		g.complete(n.id, rw.lo, rw.lo+len(rw.oks), rw.oks, false)
	} else {
		fb := getBuf()
		b, err := wire.AppendBatchWriteResp((*fb)[:0], wire.BatchWriteResp{
			ID: rw.id, OK: rw.oks, FB: n.feedbackAt(rw.fbShard)})
		if err != nil {
			putBuf(fb)
			rw.cw.sever(err)
		} else {
			*fb = b
			rw.cw.enqueue(fb)
		}
	}
	clear(rw.keys) // views of a recycled buffer
	clear(rw.vals)
	buf := rw.buf
	if cap(buf) > bufRetainCap {
		buf = nil
	}
	*rw = replicaWrite{keys: rw.keys, vers: rw.vers, vals: rw.vals, pos: rw.pos, oks: rw.oks,
		buf: buf, offs: rw.offs, tasks: rw.tasks}
	replicaWritePool.Put(rw)
}

// writeQueueDepth bounds each shard's pending writeTasks; maxApplyBatch
// bounds how many records a writer folds into one ApplyMulti (one WAL commit
// group) beyond the first task's.
const (
	writeQueueDepth = 256
	maxApplyBatch   = 64
)

// enqueueWriteTask hands t to its shard's writer. When the queue is full the
// task falls back to a goroutine of its own applying directly against the
// shard — backpressure without ever blocking the serve loop, and at most one
// goroutine per shard task, never one per record.
func (n *Node) enqueueWriteTask(t *writeTask) {
	select {
	case n.st[t.sh].wq <- t:
	default:
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			one := [1]*writeTask{t}
			n.applyTasks(n.store.Shard(t.sh), one[:], nil)
		}()
	}
}

// fold is a shard writer's scratch: several tasks' records side by side.
type fold struct {
	keys []string
	vers []uint64
	vals [][]byte
	dels []bool
}

// applyTasks lands tasks on shard st as one ApplyMulti — one memtable lock,
// one WAL commit group — and finishes each; f is scratch for more than one
// task. Under the drop-writes fault a leg's task fails without applying,
// while a stream push still lands: read repair and streaming heal what an
// injected drop broke.
func (n *Node) applyTasks(st *lsm.Store, tasks []*writeTask, f *fold) {
	drop := n.dropWrites.Load()
	keep := tasks[:0]
	for _, t := range tasks {
		if drop && !t.rw.heal {
			t.finish(errWriteDropped)
		} else {
			keep = append(keep, t)
		}
	}
	var err error
	switch len(keep) {
	case 0:
		return
	case 1:
		err = st.ApplyMulti(keep[0].records())
	default:
		f.keys, f.vers, f.vals, f.dels = f.keys[:0], f.vers[:0], f.vals[:0], f.dels[:0]
		for _, t := range keep {
			keys, vers, vals, _ := t.records()
			f.keys, f.vers, f.vals = append(f.keys, keys...), append(f.vers, vers...), append(f.vals, vals...)
			for range keys {
				f.dels = append(f.dels, t.rw.del)
			}
		}
		err = st.ApplyMulti(f.keys, f.vers, f.vals, f.dels)
	}
	for _, t := range keep {
		t.finish(err)
	}
}

// writeWorker is shard sh's writer goroutine: it drains pending tasks and
// applies them as one ApplyMulti, then completes each task. Unrelated
// shards' writers never share a lock or an fsync group.
func (n *Node) writeWorker(sh int) {
	defer n.wg.Done()
	q := n.st[sh].wq
	st := n.store.Shard(sh)
	tasks := make([]*writeTask, 0, maxApplyBatch)
	var f fold
	for {
		var t *writeTask
		select {
		case t = <-q:
		case <-n.closed:
			for {
				select {
				case t := <-q:
					t.finish(errClosed)
				default:
					return
				}
			}
		}
		tasks = append(tasks[:0], t)
		records := t.hi - t.lo
		yielded := false
	fold:
		for records < maxApplyBatch {
			select {
			case t2 := <-q:
				tasks = append(tasks, t2)
				records += t2.hi - t2.lo
			default:
				// Yield once before committing the fold: a runnable handler
				// about to enqueue gets to run now and its task joins this
				// commit group instead of paying its own WAL write. Bounded
				// to one yield per drain so a steady producer stream cannot
				// postpone the commit indefinitely.
				if yielded {
					break fold
				}
				yielded = true
				runtime.Gosched()
			}
		}
		n.applyTasks(st, tasks, &f)
		clear(tasks)
	}
}

// readTask is one coordinated client read handed to a read worker: its
// gather, answered under id with a point frame (point) or a batch frame.
type readTask struct {
	cw    *connWriter
	id    uint64
	g     *readGather
	point bool
}

var readTaskPool = sync.Pool{New: func() any { return new(readTask) }}

func getReadTask() *readTask { return readTaskPool.Get().(*readTask) }

func putReadTask(t *readTask) {
	*t = readTask{}
	readTaskPool.Put(t)
}

// dispatchRead hands a coordinated read to a parked worker — an unbuffered
// rendezvous, so a successful send means a worker took it with zero
// allocations — falling back to a spawned goroutine when every worker is
// busy, which keeps read concurrency unlimited. The caller has already
// added the task to n.wg.
func (n *Node) dispatchRead(t *readTask) {
	select {
	case n.readq <- t:
	default:
		go n.runReadTask(t)
	}
}

// runReadTask resolves one coordinated read, recycles its task state, and
// releases the read's hold on n.wg.
func (n *Node) runReadTask(t *readTask) {
	if t.point {
		n.respondCoordRead(t.cw, t.id, t.g)
	} else {
		n.respondBatchRead(t.cw, t.id, t.g)
	}
	putReadTask(t)
	n.wg.Done()
}

// readWorker serves coordinated reads handed off by dispatchRead. Workers
// exist to make the steady-state read allocation-free (a parked worker
// replaces a go-statement's closure); they are not a concurrency bound —
// dispatchRead overflows to plain goroutines.
func (n *Node) readWorker() {
	defer n.wg.Done()
	for {
		select {
		case t := <-n.readq:
			n.runReadTask(t)
		case <-n.closed:
			return
		}
	}
}

// readWorkerCount sizes the worker pool: enough parked workers that a
// moderately concurrent client sees rendezvous handoffs, scaled with the
// shard count.
func readWorkerCount(shards int) int {
	if w := 2 * shards; w > 8 {
		return w
	}
	return 8
}
