package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
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
//   - QUORUM acks once ⌊N/2⌋+1 replicas answered. A quorum read sends a data
//     read to the C3-best replica and version-only digests to the next R-1
//     in rank order (the read ladder, readpath.go), reconciles by highest
//     version — fetching the value when a digest is newer than the data —
//     and writes the newest value back to stale responders before
//     returning, so R+W>N yields read-your-writes. A quorum write fans out
//     to the whole group.
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

// SetDropWrites makes the node reject the write legs it is sent without
// applying them — a fault-injection hook for consistency tests and the
// staleness benchmark: a coordinator's leg (its own local leg included) or a
// hint replay fails, so an acked CL=ONE write visibly misses this replica.
// Read-repair write-backs and key-range pages (MsgStreamPush) still land:
// they are what heals the miss.
func (n *Node) SetDropWrites(drop bool) { n.dropWrites.Store(drop) }

// repairKeys writes keys at vers with vals to one replica under the
// last-write-wins guard — the write-back half of read repair: the local store
// directly, a peer with one stream push of version-prefixed values, whatever
// the key count. Either is a heal, so the drop-writes fault never applies.
// Failures are ignored: the replica is either down (its next read or a hint
// will heal it) or already newer (the guard skipped us, which is success).
func (n *Node) repairKeys(s core.ServerID, keys []string, vers []uint64, vals [][]byte) {
	n.repairs.Add(uint64(len(keys)))
	if s == n.id {
		n.store.ApplyMulti(keys, vers, vals, nil)
		return
	}
	p, err := n.peer(s)
	if err != nil {
		return
	}
	total := 0
	for _, v := range vals {
		total += lsm.VersionLen + len(v)
	}
	buf := make([]byte, 0, total) // one buffer for every raw value
	raws := make([][]byte, len(keys))
	for i := range raws {
		at := len(buf)
		buf = lsm.AppendVersioned(buf, vers[i], vals[i])
		raws[i] = buf[at:]
	}
	p.batchWrite(wire.MsgStreamPush, wire.LevelOne, 0, false, keys, raws, nil)
}
