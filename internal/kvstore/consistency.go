package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"c3/internal/core"
	"c3/internal/wire"
)

// Tunable consistency. Every write is stamped by its coordinator with a
// 64-bit HLC-style version (stampVersion) and applied on replicas under the
// storage engine's last-write-wins guard, so replicas converge to the highest
// version no matter the arrival order. On top of that, reads and writes carry
// a per-operation consistency level:
//
//   - ONE (the default) keeps the original fast path: ack on the first
//     replica response, C3-ranked single dispatch with the hedge/failover
//     ladder behind it.
//   - QUORUM dispatches to the whole replica group, ranked so the
//     C3-selected best replica is dispatched first, and acks once ⌊N/2⌋+1
//     responses (or acks) arrive. Quorum reads reconcile divergent versions
//     and synchronously write the newest value back to stale responders
//     before returning, so R+W>N yields read-your-writes.
//   - ALL waits for every replica.
//
// Writes toward down replicas turn into durable hints replayed with backoff
// when the peer recovers (see hints.go).

// Level is a per-operation consistency level.
type Level uint8

// Consistency levels. The zero value is One, matching the wire encoding.
const (
	One    Level = Level(wire.LevelOne)
	Quorum Level = Level(wire.LevelQuorum)
	All    Level = Level(wire.LevelAll)
)

// String names the level the way the CLI flags spell it.
func (l Level) String() string {
	switch l {
	case One:
		return "one"
	case Quorum:
		return "quorum"
	case All:
		return "all"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// ParseLevel parses a level name (case-insensitive: one|quorum|all).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "one", "1":
		return One, nil
	case "quorum":
		return Quorum, nil
	case "all":
		return All, nil
	}
	return One, fmt.Errorf("kvstore: unknown consistency level %q", s)
}

// required is the number of replica responses the level demands out of a
// group of n.
func (l Level) required(n int) int {
	switch l {
	case Quorum:
		return n/2 + 1
	case All:
		return n
	}
	return 1
}

// Typed error taxonomy. Callers distinguish failure classes with errors.Is:
// a quorum write that could not reach enough live replicas matches both
// ErrQuorumUnavailable and ErrWriteFailed, while a read that exhausted its
// budget matches ErrTimeout.
var (
	// ErrQuorumUnavailable reports fewer reachable replicas than the
	// requested level needs — including a write refused because a down
	// replica's hint log is full (bounded handoff debt).
	ErrQuorumUnavailable = errors.New("kvstore: not enough live replicas for consistency level")
	// ErrTimeout reports an operation whose budget expired before the level
	// was satisfied.
	ErrTimeout = errors.New("kvstore: operation budget exceeded")
)

// statusError is a concrete error that belongs to several taxonomy kinds at
// once (e.g. a failed quorum write is both ErrQuorumUnavailable and
// ErrWriteFailed).
type statusError struct {
	msg   string
	kinds []error
}

func (e *statusError) Error() string { return e.msg }

func (e *statusError) Is(target error) bool {
	for _, k := range e.kinds {
		if k == target {
			return true
		}
	}
	return false
}

var (
	errReadUnavailable = &statusError{
		msg:   "kvstore: quorum read unavailable: too few live replicas",
		kinds: []error{ErrQuorumUnavailable},
	}
	errReadTimeout = &statusError{
		msg:   "kvstore: quorum read timed out before enough replicas answered",
		kinds: []error{ErrTimeout},
	}
	errWriteUnavailable = &statusError{
		msg:   "kvstore: write failed: consistency level unavailable",
		kinds: []error{ErrQuorumUnavailable, ErrWriteFailed},
	}
	errWriteTimeout = &statusError{
		msg:   "kvstore: write timed out before the consistency level was met",
		kinds: []error{ErrTimeout, ErrWriteFailed},
	}
)

// readStatusErr maps a read-response status to the taxonomy (nil for OK).
func readStatusErr(status uint8) error {
	switch status {
	case wire.StatusQuorumUnavailable:
		return errReadUnavailable
	case wire.StatusTimeout:
		return errReadTimeout
	}
	return nil
}

// writeStatusErr maps a write-response status to the taxonomy (nil for OK).
func writeStatusErr(status uint8) error {
	switch status {
	case wire.StatusWriteFailed:
		return ErrWriteFailed
	case wire.StatusQuorumUnavailable:
		return errWriteUnavailable
	case wire.StatusTimeout:
		return errWriteTimeout
	}
	return nil
}

// versionNodeBits is the width of the node-id suffix inside a version stamp:
// version = microseconds-since-epoch << versionNodeBits | nodeID. The suffix
// makes stamps from different coordinators unique, so last-write-wins never
// ties; the physical prefix keeps cross-coordinator sequences from the same
// client wall-clock-ordered.
const versionNodeBits = 10

// stampVersion draws the next HLC-style version: the physical clock when it
// advanced, otherwise last+1 — strictly monotonic per coordinator even when
// the clock stalls or steps back.
func (n *Node) stampVersion() uint64 {
	node := uint64(n.id) & (1<<versionNodeBits - 1)
	for {
		last := n.hlc.Load()
		next := uint64(time.Now().UnixMicro()) << versionNodeBits
		if next <= last {
			next = (last>>versionNodeBits + 1) << versionNodeBits
		}
		next |= node
		if n.hlc.CompareAndSwap(last, next) {
			return next
		}
	}
}

// ReadRepairs reports version-guarded repair write-backs this coordinator has
// issued (quorum reconciliation plus background repair probes).
func (n *Node) ReadRepairs() uint64 { return n.repairs.Load() }

// QuorumFailures reports coordinated operations that failed their requested
// consistency level (unavailable or timed out) despite any partial acks.
func (n *Node) QuorumFailures() uint64 { return n.quorumFails.Load() }

// SetDropWrites makes the node's storage reject replica-local writes without
// applying them — a fault-injection hook for consistency tests and the
// staleness benchmark: an acked CL=ONE write then visibly misses this
// replica until repair or handoff heals it.
func (n *Node) SetDropWrites(drop bool) { n.dropWrites.Store(drop) }

// quorumVote is one replica's successful answer within a quorum read.
type quorumVote struct {
	from  core.ServerID
	found bool
	ver   uint64
	val   []byte  // payload (version split off); aliases buf
	buf   *[]byte // pooled; released by the collector
}

// coordinateQuorumRead dispatches a read to the whole replica group — ranked,
// so the C3-chosen best replica still receives the first dispatch and the
// rate limiter admits the fan-out as one decision — and resolves once the
// level's R responses arrived. Divergent responders are repaired before
// returning: the newest version is written back under the replica-side
// last-write-wins guard, so the repair can never clobber a concurrent newer
// write. Dispatching to all N subsumes the ONE path's hedging (there is no
// untried replica left to hedge to); the read budget still backstops the
// whole operation, and stragglers beyond R are reaped in the background with
// their accounting intact.
func (n *Node) coordinateQuorumRead(m wire.ReadReq) (wire.ReadResp, *[]byte) {
	n.coord.Add(1)
	sel := n.selFor(m.Key)
	var gbuf [8]core.ServerID
	group := n.topo.Load().readRing().ReplicasFor(keyBytes(m.Key), gbuf[:0])
	need := Level(m.CL).required(len(group))

	// Backpressure: one rate token admits the fan-out, paid at the ranked
	// best replica exactly like a ONE read (Pick records its send); the
	// remaining replicas' sends are recorded explicitly so every racer's
	// resolution balances one send.
	deadline := time.Now().Add(n.cfg.BackpressureTimeout)
	var target core.ServerID
	waited := false
	for {
		now := time.Now().UnixNano()
		s, ok, retryAt := sel.Pick(group, now)
		if ok {
			target = s
			break
		}
		waited = true
		if time.Now().After(deadline) {
			target, _ = sel.PickBest(group, now)
			break
		}
		time.Sleep(time.Duration(retryAt-now) + 100*time.Microsecond)
	}
	if waited {
		n.waited.Add(1)
	}

	ch := make(chan raceOutcome, len(group))
	now := time.Now().UnixNano()
	for _, s := range group {
		if s != target {
			sel.OnSend(s, now)
		}
	}
	n.raceRead(sel, target, m, ch)
	for _, s := range group {
		if s != target {
			n.raceRead(sel, s, m, ch)
		}
	}

	votes := make([]quorumVote, 0, len(group))
	pending := len(group)
	fails := 0
	status := wire.StatusOK
	budget := getTimer(n.cfg.ReadBudget)
	defer putTimer(budget)
collect:
	for len(votes) < need {
		select {
		case out := <-ch:
			pending--
			if out.err != nil {
				fails++
				if fails > len(group)-need {
					status = wire.StatusQuorumUnavailable
					break collect
				}
				continue
			}
			n.observeReadRTT(out.rtt)
			votes = append(votes, quorumVote{
				from:  out.from,
				found: out.resp.Found,
				ver:   out.resp.Version,
				val:   out.resp.Value,
				buf:   out.buf,
			})
		case <-budget.C:
			status = wire.StatusTimeout
			break collect
		}
	}
	n.reap(ch, pending)
	if status != wire.StatusOK {
		n.quorumFails.Add(1)
		for _, v := range votes {
			putBuf(v.buf)
		}
		return wire.ReadResp{ID: m.ID, Status: status, FB: n.feedback()}, nil
	}

	// Reconcile: the highest-version found value wins; absent only if no
	// responder has the key.
	win := -1
	for i, v := range votes {
		if !v.found {
			continue
		}
		if win < 0 || v.ver > votes[win].ver {
			win = i
		}
	}
	if win < 0 {
		for _, v := range votes {
			putBuf(v.buf)
		}
		return wire.ReadResp{ID: m.ID, FB: n.feedback()}, nil
	}
	winner := votes[win]

	// Blocking read repair: push the winning (version, value) to every
	// responder that answered older or absent, and wait — the client must
	// not observe a quorum that is still divergent after its read returns.
	// The replica-side guard makes the write-back safe against any newer
	// concurrent write.
	var wg sync.WaitGroup
	for _, v := range votes {
		if v.from == winner.from || (v.found && v.ver >= winner.ver) {
			continue
		}
		s := v.from
		wg.Add(1)
		n.wg.Add(1)
		go func() {
			defer wg.Done()
			defer n.wg.Done()
			n.repairReplica(s, m.Key, winner.ver, winner.val)
		}()
	}
	wg.Wait()
	for _, v := range votes {
		if v.buf != winner.buf {
			putBuf(v.buf)
		}
	}
	return wire.ReadResp{
		ID:      m.ID,
		Found:   true,
		Version: winner.ver,
		Value:   winner.val,
		FB:      n.feedback(),
	}, winner.buf
}

// repairReplica writes (ver, val) for key to one replica under the
// last-write-wins guard — the write-back half of read repair. Failures are
// ignored: the replica is either down (its next read or a hint will heal it)
// or already newer (the guard skipped us, which is success).
func (n *Node) repairReplica(s core.ServerID, key string, ver uint64, val []byte) {
	n.repairs.Add(1)
	if s == n.id {
		n.store.ApplyMulti([]string{key}, []uint64{ver}, [][]byte{val}, nil)
		return
	}
	if p, err := n.peer(s); err == nil {
		p.write(key, val, ver, false)
	}
}
