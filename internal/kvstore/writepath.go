package kvstore

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"c3/internal/core"
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
//     Remote legs go out as writeAsync/batchWriteAsync calls completed on
//     their connection's read loop; a one-key local leg is queued to the
//     key's shard writer. The gather counts acks per key and answers the
//     moment every key is decided, from whichever goroutine delivered the
//     deciding leg — onto the client's connection, or to a RESP handler
//     blocked on a channel: sync is async plus a wait. A point write
//     allocates nothing and spawns nothing in steady state.
//   - Each shard runs one writer goroutine draining a queue of writeTasks.
//     The writer batches whatever is pending into a single ApplyMulti — one
//     memtable lock, one WAL commit group per drain — so pipelined writes
//     against one shard share a group commit while never contending with
//     sibling shards' locks or fsyncs.
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
// gather takes keys and vals (it may reorder them); vals are backed by buf.
func batchGather(keys []string, vals [][]byte, buf *[]byte) *writeGather {
	g := writeGatherPool.Get().(*writeGather)
	g.keys, g.vals, g.buf, g.batch = keys, vals, buf, true
	return g
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

// dispatch sends the leg carrying keys lo..hi to replica s. A one-key local
// leg is queued to its shard writer and a leg on an established connection
// goes out as an async RPC, both completing elsewhere; a multi-key local
// apply and a leg that needs a dial — the legs that can block — run as
// goroutines, off the serve loop.
func (g *writeGather) dispatch(s core.ServerID, lo, hi int) {
	n := g.n
	switch {
	case s == n.id && hi-lo == 1:
		t := getWriteTask()
		t.kind, t.g, t.idx = taskGather, g, lo
		t.key, t.ver, t.val, t.del = g.keys[lo], g.ver, g.vals[lo], g.del
		n.enqueueWriteTask(n.shardOf(t.key), t)
	case s == n.id:
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			err := n.applyClientBatch(g.keys[lo:hi], g.ver, g.vals[lo:hi])
			g.complete(s, lo, hi, acked(err, hi-lo), false)
		}()
	default:
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
}

// send puts a remote leg on an established connection: writeAsync for one
// key (the only frame that carries Del), batchWriteAsync for a sub-batch.
// Either completes on the connection's read loop; a dispatch that never
// started completes here, as a transport failure.
func (g *writeGather) send(p *rpcConn, s core.ServerID, lo, hi int) {
	c := getCall(false, nil)
	c.g, c.from, c.lo, c.hi = g, s, lo, hi
	var err error
	if hi-lo == 1 {
		err = p.writeAsync(c, wire.MsgWriteInternal, wire.LevelOne, g.ver, g.keys[lo], g.vals[lo], g.del)
	} else {
		c.isBatch = true
		err = p.batchWriteAsync(c, wire.MsgBatchWriteInternal, wire.LevelOne, g.ver, g.keys[lo:hi], g.vals[lo:hi])
	}
	if err != nil {
		g.complete(s, lo, hi, nil, true)
	}
}

// acked is a local apply's per-key outcome in complete's terms: every key of
// the batch applied, or none (one WAL commit group succeeds or fails whole).
func acked(err error, n int) []bool {
	if err != nil {
		return nil
	}
	return allOK[:n]
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
		return allOK[:len(g.keys)]
	case len(g.keys):
		return allFail[:len(g.keys)]
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

// writeTask kinds: a replica-internal write acks its own connection; a
// gather leg reports into its coordinator's writeGather.
const (
	taskInternal uint8 = iota
	taskGather
)

// writeTask is one queued replica-local write bound for a shard's writer.
type writeTask struct {
	kind uint8
	key  string
	ver  uint64
	val  []byte
	del  bool

	// taskInternal: the response route and the pooled buffer backing val.
	cw *connWriter
	id uint64
	vb *[]byte

	// taskGather: the coordinator-side gather owning val's buffer, and the
	// key's index in it.
	g   *writeGather
	idx int
}

var writeTaskPool = sync.Pool{New: func() any { return new(writeTask) }}

func getWriteTask() *writeTask { return writeTaskPool.Get().(*writeTask) }

func putWriteTask(t *writeTask) {
	*t = writeTask{}
	writeTaskPool.Put(t)
}

// writeQueueDepth bounds each shard's pending writeTasks; maxApplyBatch
// bounds how many a writer folds into one ApplyMulti (one WAL commit group).
const (
	writeQueueDepth = 256
	maxApplyBatch   = 64
)

// enqueueWriteTask hands t to shard sh's writer. When the queue is full the
// task falls back to a spawned goroutine applying directly against the
// shard — backpressure without ever blocking the serve loop.
func (n *Node) enqueueWriteTask(sh int, t *writeTask) {
	select {
	case n.st[sh].wq <- t:
	default:
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.applyDirect(sh, t)
		}()
	}
}

// applier is local storage's one write entry, as the whole sharded store or
// as a single shard of it.
type applier interface {
	ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error
}

// applyClient lands a batch of client writes in local storage. Every
// replica-side apply of a coordinated write — shard writer drain, queue
// overflow, internal batch write, the coordinator's multi-key local leg — comes
// through here, which makes it the one place the drop-writes fault injection
// has to look. Repair and streaming call the store directly: they heal what
// an injected drop broke.
func (n *Node) applyClient(st applier, keys []string, vers []uint64, vals [][]byte, dels []bool) error {
	if n.dropWrites.Load() {
		return errWriteDropped
	}
	return st.ApplyMulti(keys, vers, vals, dels)
}

var sharedVersPool = sync.Pool{New: func() any { return new([]uint64) }}

// applyClientBatch is applyClient for a batch write's sub-batch, whose
// records all carry the coordinator's one stamp: the per-record version
// column the store takes is filled from a pooled scratch.
func (n *Node) applyClientBatch(keys []string, ver uint64, vals [][]byte) error {
	vp := sharedVersPool.Get().(*[]uint64)
	vers := (*vp)[:0]
	for range keys {
		vers = append(vers, ver)
	}
	err := n.applyClient(n.store, keys, vers, vals, nil)
	*vp = vers
	sharedVersPool.Put(vp)
	return err
}

// applyDirect applies one task bypassing the shard writer (queue-overflow
// fallback): same store, same version guard, just a batch of one.
func (n *Node) applyDirect(sh int, t *writeTask) {
	err := n.applyClient(n.store.Shard(sh),
		[]string{t.key}, []uint64{t.ver}, [][]byte{t.val}, []bool{t.del})
	n.finishWriteTask(sh, t, err)
}

// writeWorker is shard sh's writer goroutine: it drains pending tasks and
// applies them as one ApplyMulti — a single memtable lock acquisition and one
// WAL commit group per drain — then completes each task. Unrelated shards'
// writers never share a lock or an fsync group.
func (n *Node) writeWorker(sh int) {
	defer n.wg.Done()
	q := n.st[sh].wq
	shard := n.store.Shard(sh)
	tasks := make([]*writeTask, 0, maxApplyBatch)
	keys := make([]string, 0, maxApplyBatch)
	vers := make([]uint64, 0, maxApplyBatch)
	vals := make([][]byte, 0, maxApplyBatch)
	dels := make([]bool, 0, maxApplyBatch)
	for {
		var t *writeTask
		select {
		case t = <-q:
		case <-n.closed:
			for {
				select {
				case t := <-q:
					n.finishWriteTask(sh, t, errClosed)
				default:
					return
				}
			}
		}
		tasks = append(tasks[:0], t)
		yielded := false
	fold:
		for len(tasks) < maxApplyBatch {
			select {
			case t2 := <-q:
				tasks = append(tasks, t2)
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
		keys, vers, vals, dels = keys[:0], vers[:0], vals[:0], dels[:0]
		for _, t := range tasks {
			keys = append(keys, t.key)
			vers = append(vers, t.ver)
			vals = append(vals, t.val)
			dels = append(dels, t.del)
		}
		err := n.applyClient(shard, keys, vers, vals, dels)
		for i, t := range tasks {
			n.finishWriteTask(sh, t, err)
			tasks[i] = nil
		}
	}
}

// finishWriteTask completes one applied (or failed) task: an internal write
// acks its peer and recycles its value buffer; a gather leg reports into
// its coordinator's gather (which owns the buffer).
func (n *Node) finishWriteTask(sh int, t *writeTask, err error) {
	switch t.kind {
	case taskGather:
		g, i := t.g, t.idx
		putWriteTask(t)
		g.complete(n.id, i, i+1, acked(err, 1), false)
	default:
		cw, id, vb := t.cw, t.id, t.vb
		putWriteTask(t)
		putBuf(vb)
		fb := getBuf()
		b, encErr := wire.AppendWriteResp((*fb)[:0], wire.WriteResp{
			ID: id, OK: err == nil, FB: n.feedbackAt(sh)})
		if encErr != nil {
			putBuf(fb)
			return
		}
		*fb = b
		cw.enqueue(fb)
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
