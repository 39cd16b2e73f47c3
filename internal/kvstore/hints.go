package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/wire"
)

// Hinted handoff (Cassandra §2: writes toward a down replica are banked on
// the coordinator and delivered when the replica returns). A write that
// cannot reach a replica becomes a hint — the key, the coordinator's version
// stamp, and the payload — queued per target and replayed with exponential
// backoff once the peer is reachable again. Replayed writes go through the
// replica's last-write-wins guard, so a hint arriving after the key moved on
// is skipped, which makes replay idempotent: a durable node appends every
// hint to a per-target sidecar log in the WAL record format and simply
// replays the whole file after a restart.
//
// Hints are availability debt, and the debt is bounded: each target queues at
// most Config.HintCap records. When a peer is down AND its queue is full,
// quorum-level writes covering it refuse up front (StatusQuorumUnavailable)
// instead of growing the backlog — the caller finds out the cluster is
// degraded rather than the coordinator hiding it in an unbounded log.
//
// Replay accounting follows the probe rules: every attempt records OnSend,
// balanced by OnResponse with the peer's piggybacked feedback on success —
// replay doubles as a freshness probe of a peer the ranker wrote off — and by
// OnAbandon on failure, so a still-dead peer never accumulates phantom
// outstanding load and never feeds failure penalties into EWMAs from the
// background path.

// defaultHintCap is the per-target queue bound when Config.HintCap is zero.
const defaultHintCap = 512

// Replay backoff: first retry after hintBackoffMin, doubling to
// hintBackoffMax while the peer stays unreachable.
const (
	hintBackoffMin = 50 * time.Millisecond
	hintBackoffMax = 2 * time.Second
)

// hintRec is one banked write.
type hintRec struct {
	key string
	ver uint64
	val []byte // payload (no version prefix); private copy
	del bool   // banked delete: replayed as a guarded tombstone
}

// hintStore is a node's handoff state: per-target FIFO queues (authoritative)
// plus, on durable nodes, per-target append-only sidecar logs under
// <storeDir>/hints. The in-memory queue drives replay; the log exists so a
// coordinator restart does not void the debt.
type hintStore struct {
	n   *Node
	dir string // "" on in-memory nodes: queues don't survive restarts
	cap int

	mu        sync.Mutex
	q         map[core.ServerID][]hintRec
	replaying map[core.ServerID]bool
	files     map[core.ServerID]*os.File
	shut      bool

	stored   atomic.Uint64 // hints accepted (not counting disk recovery)
	replayed atomic.Uint64 // hints delivered to their target
	dropped  atomic.Uint64 // hints refused because the target's queue was full
}

// openHints builds the node's hint store, recovering any per-target logs
// found under storeDir from a previous incarnation. capacity < 0 disables
// handoff entirely (returns nil); 0 means defaultHintCap.
func openHints(n *Node, storeDir string, capacity int) (*hintStore, error) {
	if capacity < 0 {
		return nil, nil
	}
	if capacity == 0 {
		capacity = defaultHintCap
	}
	h := &hintStore{
		n:         n,
		cap:       capacity,
		q:         make(map[core.ServerID][]hintRec),
		replaying: make(map[core.ServerID]bool),
		files:     make(map[core.ServerID]*os.File),
	}
	if storeDir == "" {
		return h, nil
	}
	h.dir = filepath.Join(storeDir, "hints")
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(h.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "target-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "target-"), ".log"))
		if err != nil {
			continue
		}
		target := core.ServerID(id)
		path := filepath.Join(h.dir, name)
		valid, err := lsm.ReplayLog(path, func(op byte, key string, val []byte) {
			if op != lsm.LogPut && op != lsm.LogDelete {
				return
			}
			ver, payload := lsm.SplitVersioned(val)
			cp := make([]byte, len(payload))
			copy(cp, payload)
			h.q[target] = append(h.q[target], hintRec{
				key: strings.Clone(key), ver: ver, val: cp, del: op == lsm.LogDelete})
		})
		if err != nil {
			return nil, err
		}
		// Cut a torn tail (the previous process died mid-append) so the
		// reopened log appends from a clean record boundary.
		if err := lsm.TruncateLog(path, valid); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// kickAll starts replay for every target with recovered hints. Called once
// the node is serving (replay dials peers, so it must not run before the
// topology and selector exist).
func (h *hintStore) kickAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for t, q := range h.q {
		if len(q) > 0 {
			h.startReplayLocked(t)
		}
	}
}

// add banks one write toward target, appending it to the target's sidecar log
// on durable nodes, and ensures a replay goroutine is chasing the queue. It
// reports false — and counts a drop — when the target's queue is at cap.
// key and val are copied. del banks a guarded delete (val ignored): logged
// as LogDelete, whose payload still carries the version stamp so recovery
// keeps the replay guard.
func (h *hintStore) add(target core.ServerID, key string, ver uint64, val []byte, del bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shut {
		return false
	}
	if len(h.q[target]) >= h.cap {
		h.dropped.Add(1)
		return false
	}
	if del {
		val = nil
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	h.q[target] = append(h.q[target], hintRec{key: strings.Clone(key), ver: ver, val: cp, del: del})
	h.stored.Add(1)
	if f := h.fileForLocked(target); f != nil {
		op := byte(lsm.LogPut)
		if del {
			op = lsm.LogDelete
		}
		rec := lsm.AppendLogRecord(nil, op, key, lsm.AppendVersioned(nil, ver, val))
		f.Write(rec) // best-effort: the queue is authoritative while we live
	}
	h.startReplayLocked(target)
	return true
}

// full reports whether target's queue is at cap.
func (h *hintStore) full(target core.ServerID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.q[target]) >= h.cap
}

// pending reports the total number of queued hints across targets.
func (h *hintStore) pending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for _, q := range h.q {
		total += len(q)
	}
	return total
}

// fileForLocked lazily opens the append handle for target's sidecar log.
func (h *hintStore) fileForLocked(target core.ServerID) *os.File {
	if h.dir == "" {
		return nil
	}
	if f, ok := h.files[target]; ok {
		return f
	}
	path := filepath.Join(h.dir, fmt.Sprintf("target-%d.log", target))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		f = nil // degrade to memory-only for this target
	}
	h.files[target] = f
	return f
}

// startReplayLocked spawns the replay goroutine for target unless one is
// already chasing its queue or the node is shutting down.
func (h *hintStore) startReplayLocked(target core.ServerID) {
	if h.shut || h.replaying[target] {
		return
	}
	h.replaying[target] = true
	h.n.wg.Add(1)
	go h.replayLoop(target)
}

// replayLoop delivers target's queue head-first, backing off exponentially
// while the peer stays unreachable, and exits when the queue drains (the
// sidecar log is truncated then — per-record removal is unnecessary because
// replaying an already-delivered hint is a guarded no-op) or the node shuts
// down.
func (h *hintStore) replayLoop(target core.ServerID) {
	defer h.n.wg.Done()
	backoff := hintBackoffMin
	for {
		h.mu.Lock()
		if h.shut || len(h.q[target]) == 0 || !h.n.topo.Load().serves(target) {
			if !h.shut {
				if len(h.q[target]) > 0 {
					// The topology retired the target: its ranges moved, the
					// debt is void.
					h.dropped.Add(uint64(len(h.q[target])))
					h.q[target] = nil
				}
				h.truncateLocked(target)
			}
			h.replaying[target] = false
			h.mu.Unlock()
			return
		}
		rec := h.q[target][0]
		h.mu.Unlock()
		if h.deliver(target, rec) {
			h.replayed.Add(1)
			backoff = hintBackoffMin
			h.mu.Lock()
			if q := h.q[target]; len(q) > 0 {
				h.q[target] = q[1:]
			}
			h.mu.Unlock()
			continue
		}
		select {
		case <-h.n.closed:
			h.mu.Lock()
			h.replaying[target] = false
			h.mu.Unlock()
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > hintBackoffMax {
			backoff = hintBackoffMax
		}
	}
}

// deliver attempts one hint: a one-key write leg frame to the target, with
// probe-style selector accounting (OnSend balanced by OnResponse on success,
// OnAbandon on failure — a dead peer must not accumulate phantom load). The
// ack carries the feedback of the key's shard, which trains that shard's
// selector.
func (h *hintStore) deliver(target core.ServerID, rec hintRec) bool {
	n := h.n
	p, err := n.peer(target)
	if err != nil {
		return false
	}
	sel := n.selFor(rec.key)
	sel.OnSend(target, time.Now().UnixNano())
	sent := time.Now()
	var okb [1]bool
	oks, _, fb, err := p.batchWrite(wire.MsgBatchWriteInternal, wire.LevelOne, rec.ver, rec.del,
		[]string{rec.key}, [][]byte{rec.val}, okb[:0])
	if err != nil || len(oks) != 1 || !oks[0] {
		sel.OnAbandon(target, time.Now().UnixNano())
		return false
	}
	n.accountReadSuccess(sel, target, 1, fb, time.Since(sent), time.Now())
	return true
}

// truncateLocked empties target's sidecar log once its queue has drained.
func (h *hintStore) truncateLocked(target core.ServerID) {
	if f := h.files[target]; f != nil {
		f.Truncate(0)
	}
}

// stop refuses new hints and replays. The node calls it before waiting out
// its WaitGroup: a write leg failed by the connection teardown still banks
// its hint from a goroutine outside that group, and a replay started then
// would call wg.Add while Wait runs. Setting shut under mu orders every
// earlier Add before the Wait.
func (h *hintStore) stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shut = true
}

// close releases the sidecar log handles. Replay goroutines are already done:
// the node stops the hints and waits out its WaitGroup before closing the
// store and the hints.
func (h *hintStore) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shut = true
	for _, f := range h.files {
		if f != nil {
			f.Close()
		}
	}
	h.files = make(map[core.ServerID]*os.File)
}

// hintWrite banks a write leg that never reached replica s — one hint per
// key, all under the coordinator's stamp ver — if handoff is enabled and the
// target's queue has room. vals may alias a pooled buffer; add copies them
// synchronously.
func (n *Node) hintWrite(s core.ServerID, keys []string, ver uint64, vals [][]byte, del bool) {
	if n.hints == nil {
		return
	}
	for i := range keys {
		n.hints.add(s, keys[i], ver, vals[i], del)
	}
}

// hintFull reports whether target's hint queue is at cap (always false when
// handoff is disabled: there is no debt to bound).
func (n *Node) hintFull(s core.ServerID) bool {
	return n.hints != nil && n.hints.full(s)
}

// HintsPending reports the number of banked writes awaiting replay.
func (n *Node) HintsPending() int {
	if n.hints == nil {
		return 0
	}
	return n.hints.pending()
}

// HintsStored reports writes banked as hints by this coordinator.
func (n *Node) HintsStored() uint64 {
	if n.hints == nil {
		return 0
	}
	return n.hints.stored.Load()
}

// HintsReplayed reports banked writes delivered to their recovered target.
func (n *Node) HintsReplayed() uint64 {
	if n.hints == nil {
		return 0
	}
	return n.hints.replayed.Load()
}

// HintsDropped reports hints refused because a target's queue was at cap (or
// voided because the topology retired the target).
func (n *Node) HintsDropped() uint64 {
	if n.hints == nil {
		return 0
	}
	return n.hints.dropped.Load()
}
