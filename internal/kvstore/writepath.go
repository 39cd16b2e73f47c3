package kvstore

import (
	"runtime"
	"sync"
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
//   - Writes are event-driven. A coordinated write allocates nothing and
//     spawns nothing in steady state: the serve loop charges a pooled
//     writeGather with one leg per replica, remote legs go out as writeAsync
//     calls completed on their connection's read loop, and the local leg is
//     queued to the key's shard writer. The gather acks the client the
//     moment the consistency level is met, from whichever goroutine
//     delivered the deciding leg.
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

// pooledString views a pooled buffer's bytes as a string. The caller owns
// the aliasing discipline: the string must not be retained past the
// buffer's recycling (clone it first — see readRace.spawn).
func pooledString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// writeGather is the in-flight state of one coordinated write: counters for
// the replica fan-out and the response route. Legs complete it from
// wherever they resolve — a peer connection's read loop, a shard writer, a
// dial goroutine — and the leg that decides the level encodes and enqueues
// the client's ack. refs releases the pooled value buffer after the last
// leg (hints copy the value synchronously inside complete).
type writeGather struct {
	n    *Node
	cw   *connWriter
	id   uint64
	lvl  Level
	need int

	mu      sync.Mutex
	oks     int
	fails   int
	total   int
	decided bool

	key string
	ver uint64
	val []byte
	del bool
	vb  *[]byte

	// done, when non-nil, routes the decision to a blocked caller (the RESP
	// gateway's synchronous write) instead of encoding onto cw. Buffered(1):
	// the deciding leg never blocks on a slow caller.
	done chan wire.WriteResp

	refs int32 // touched under mu; complete may run from any goroutine
}

var writeGatherPool = sync.Pool{New: func() any { return new(writeGather) }}

// complete resolves one leg of the fan-out. transport marks a leg that never
// reached its replica (connection dead, dial failed): the write is banked as
// a hint toward that replica before the value buffer can be released.
func (g *writeGather) complete(from core.ServerID, ok bool, transport bool) {
	n := g.n
	if transport {
		n.hintWrite(from, wire.WriteReq{Key: g.key, Version: g.ver, Value: g.val, Del: g.del})
	}
	g.mu.Lock()
	decide := 0
	if !g.decided {
		if ok {
			if g.oks++; g.oks >= g.need {
				g.decided, decide = true, 1
			}
		} else if g.fails++; g.fails > g.total-g.need {
			g.decided, decide = true, 2
		}
	}
	oks := g.oks
	g.refs--
	last := g.refs == 0
	cw, id, lvl, done := g.cw, g.id, g.lvl, g.done
	g.mu.Unlock()
	if decide != 0 {
		resp := wire.WriteResp{ID: id, OK: decide == 1, Status: wire.StatusOK, FB: n.feedback()}
		if decide == 2 {
			if oks == 0 {
				n.writeFails.Add(1)
			}
			if lvl != One {
				n.quorumFails.Add(1)
				resp.Status = wire.StatusQuorumUnavailable
			} else {
				resp.Status = wire.StatusWriteFailed
			}
		}
		if done != nil {
			done <- resp
		} else {
			fb := getBuf()
			if b, err := wire.AppendWriteResp((*fb)[:0], resp); err != nil {
				putBuf(fb)
			} else {
				*fb = b
				cw.enqueue(fb)
			}
		}
	}
	if last {
		putBuf(g.vb)
		g.vb, g.val, g.key, g.cw, g.n, g.done = nil, nil, "", nil, nil, nil
		writeGatherPool.Put(g)
	}
}

// launchCoordWrite coordinates a client write without leaving the serve
// loop: stamp, precheck, and dispatch every replica leg, then return — the
// ack is enqueued by whichever leg decides the level. vb is the pooled
// buffer backing m.Value, released by the gather's last leg. Mirrors the
// old blocking coordinateWrite: first genuine success acks ONE, ⌊N/2⌋+1
// QUORUM, all replicas ALL; unreachable replicas' writes are banked as
// hints that never count toward the level; a down replica with a full hint
// queue fails a quorum write deterministically up front.
func (n *Node) launchCoordWrite(cw *connWriter, m wire.WriteReq, vb *[]byte) {
	n.launchWrite(cw, nil, m, vb)
}

// coordinateWriteSync runs a coordinated write and blocks for the decision —
// the RESP gateway's entry point (a RESP reply is synchronous by protocol).
// Ownership of vb (backing m.Value) transfers to the gather exactly as on
// the async path: legs may outlive the decision, so the buffer is released
// by the last leg, not by this return.
func (n *Node) coordinateWriteSync(m wire.WriteReq, vb *[]byte) wire.WriteResp {
	done := make(chan wire.WriteResp, 1)
	n.launchWrite(nil, done, m, vb)
	return <-done
}

// launchWrite is the shared body: exactly one of cw (async ack route) and
// done (synchronous decision route) is non-nil.
func (n *Node) launchWrite(cw *connWriter, done chan wire.WriteResp, m wire.WriteReq, vb *[]byte) {
	var gbuf [8]core.ServerID
	group := n.topo.Load().writeGroup(keyBytes(m.Key), gbuf[:0])
	lvl := Level(m.CL)
	need := 1
	if lvl != One {
		owners := n.topo.Load().readRing().ReplicasFor(keyBytes(m.Key), nil)
		need = lvl.required(len(owners))
		if need > len(group) {
			need = len(group)
		}
		for _, s := range group {
			if s == n.id || !n.hintFull(s) {
				continue
			}
			if _, up := n.peerReady(s); !up {
				n.quorumFails.Add(1)
				putBuf(vb)
				resp := wire.WriteResp{ID: m.ID, Status: wire.StatusQuorumUnavailable, FB: n.feedback()}
				if done != nil {
					done <- resp
					return
				}
				fb := getBuf()
				b, err := wire.AppendWriteResp((*fb)[:0], resp)
				if err != nil {
					putBuf(fb)
					return
				}
				*fb = b
				cw.enqueue(fb)
				return
			}
		}
	}
	m.Version = n.stampVersion()
	g := writeGatherPool.Get().(*writeGather)
	g.n, g.cw, g.id, g.lvl, g.need = n, cw, m.ID, lvl, need
	g.done = done
	g.oks, g.fails, g.decided = 0, 0, false
	g.total, g.refs = len(group), int32(len(group))
	g.key, g.ver, g.val, g.del, g.vb = m.Key, m.Version, m.Value, m.Del, vb
	for _, s := range group {
		if s == n.id {
			t := getWriteTask()
			t.kind = taskGather
			t.key, t.ver, t.val, t.del, t.g = m.Key, m.Version, m.Value, m.Del, g
			n.enqueueWriteTask(n.shardOf(m.Key), t)
			continue
		}
		if p, ok := n.peerReady(s); ok {
			if err := p.writeAsync(m.Key, m.Value, m.Version, m.Del, g, s); err != nil {
				g.complete(s, false, true) // dispatch never started: transport failure
			}
			continue
		}
		// The link needs a dial (or the peer is down): the only leg that can
		// block, so it runs as a goroutine. Its resolution — response, RPC
		// error turned hint — feeds the gather like any other leg.
		s := s
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			out, err := n.rpcWrite(s, m)
			g.complete(s, err == nil && out.OK, err != nil)
		}()
	}
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

	// taskGather: the coordinator-side gather owning val's buffer.
	g *writeGather
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
// overflow, internal batch write, the batch coordinator's own leg — comes
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
		g := t.g
		putWriteTask(t)
		g.complete(n.id, err == nil, false)
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

// readTask is one coordinated client read handed to a read worker. kb, when
// non-nil, is the pooled buffer whose bytes back m.Key (recycled after the
// read resolves; escalation paths clone first).
type readTask struct {
	cw *connWriter
	m  wire.ReadReq
	kb *[]byte
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

// runReadTask resolves one coordinated read and recycles its task state.
func (n *Node) runReadTask(t *readTask) {
	defer n.wg.Done()
	n.respondCoordRead(t.cw, t.m)
	if t.kb != nil {
		putBuf(t.kb)
	}
	putReadTask(t)
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
			n.respondCoordRead(t.cw, t.m)
			if t.kb != nil {
				putBuf(t.kb)
			}
			putReadTask(t)
			n.wg.Done()
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
