package kvstore

import (
	"fmt"

	"c3/internal/lsm"
	"c3/internal/resp"
	"c3/internal/wire"
)

// RESP gateway adapter: maps the resp.Backend surface onto the node's
// coordinated read/write paths, so any Redis client can drive the store
// through a node acting as coordinator.
//
// Command → path mapping:
//
//	GET   → coordinateRead (ONE) / coordinateQuorumRead (QUORUM, ALL)
//	SET   → coordinateWrite, the one write coordinator, plus a wait
//	        (writeSync): the full replicated write fan-out, version-stamped,
//	        hint-banked on transport failure
//	DEL   → the same write with the tombstone flag set
//	MGET  → coordinateBatchRead: the scatter-gather batch path
//	MSET  → the same coordinator and wait, one version stamp for the batch
//
// Ownership: resp hands the adapter arguments aliasing its parse arena, so
// every key is cloned to a durable string and every value is copied into a
// pooled buffer before entering the coordination paths; returned values are
// fresh allocations owned by the caller. Found/miss travels as an explicit
// bool end to end — a present-but-empty value reaches RESP as a zero-length
// bulk string, a miss as a nil reply, never conflated.

// respBackend adapts one node to resp.Backend at a fixed consistency level.
type respBackend struct {
	n   *Node
	lvl Level
}

// RESPBackend returns a resp.Backend that coordinates every command through
// the node at the given consistency level.
func (n *Node) RESPBackend(lvl Level) resp.Backend {
	return &respBackend{n: n, lvl: lvl}
}

var errKeyTooLong = fmt.Errorf("key exceeds %d bytes", wire.MaxKeyLen)
var errValueTooLong = fmt.Errorf("value exceeds %d bytes", wire.MaxValueLen)
var errBatchTooLarge = fmt.Errorf("batch exceeds %d keys", wire.MaxBatchKeys)

func checkKV(key, val []byte) error {
	if len(key) > wire.MaxKeyLen {
		return errKeyTooLong
	}
	if len(val) > wire.MaxValueLen {
		return errValueTooLong
	}
	return nil
}

// Get coordinates a point read. found distinguishes a miss from an empty
// value: a stored empty value returns ([]byte{}, true, nil).
func (b *respBackend) Get(key []byte) ([]byte, bool, error) {
	if err := checkKV(key, nil); err != nil {
		return nil, false, err
	}
	n := b.n
	m := wire.ReadReq{CL: uint8(b.lvl), Key: string(key)}
	var rr wire.ReadResp
	var vbuf *[]byte
	if b.lvl == One {
		rr, vbuf = n.coordinateRead(m, nil)
	} else {
		rr, vbuf = n.coordinateQuorumRead(m)
	}
	if err := readStatusErr(rr.Status); err != nil {
		if vbuf != nil {
			putBuf(vbuf)
		}
		return nil, false, err
	}
	if !rr.Found {
		if vbuf != nil {
			putBuf(vbuf)
		}
		return nil, false, nil
	}
	var val []byte
	if vbuf == nil {
		// Inline local read: rr.Value is the raw stored bytes (version
		// prefix + payload) in a caller-owned buffer.
		_, payload := lsm.SplitVersioned(rr.Value)
		val = append([]byte{}, payload...)
	} else {
		val = append([]byte{}, rr.Value...)
		putBuf(vbuf)
	}
	return val, true, nil
}

// Set coordinates a replicated write at the backend's level.
func (b *respBackend) Set(key, val []byte) error {
	return b.write(key, val, false)
}

// Del coordinates a replicated delete. deleted reports whether the key was
// readable at the backend's level just before the tombstone landed — the
// best a leaderless store can answer for Redis's "number of keys removed"
// (the check and the delete are not atomic; concurrent writers can race).
func (b *respBackend) Del(key []byte) (bool, error) {
	if err := checkKV(key, nil); err != nil {
		return false, err
	}
	existed := b.exists(string(key))
	if err := b.write(key, nil, true); err != nil {
		return false, err
	}
	return existed, nil
}

// exists runs a coordinated read for its found bit alone.
func (b *respBackend) exists(key string) bool {
	m := wire.ReadReq{CL: uint8(b.lvl), Key: key}
	var rr wire.ReadResp
	var vbuf *[]byte
	if b.lvl == One {
		rr, vbuf = b.n.coordinateRead(m, nil)
	} else {
		rr, vbuf = b.n.coordinateQuorumRead(m)
	}
	if vbuf != nil {
		putBuf(vbuf)
	}
	return rr.Status == wire.StatusOK && rr.Found
}

func (b *respBackend) write(key, val []byte, del bool) error {
	if err := checkKV(key, val); err != nil {
		return err
	}
	vb := getBuf()
	*vb = append((*vb)[:0], val...)
	return b.writeSync(pointGather(string(key), *vb, del, vb))
}

// writeSync runs the one write coordinator and waits for its decision: a
// RESP reply is synchronous by protocol, so the gateway's write is the async
// path plus a wait on a 1-buffered channel. Legs may outlive the decision,
// so the gather — not this return — releases the value buffer.
func (b *respBackend) writeSync(g *writeGather) error {
	done := make(chan wire.WriteResp, 1)
	g.done = done
	b.n.coordinateWrite(g, b.lvl)
	out := <-done
	if out.OK {
		return nil
	}
	if err := writeStatusErr(out.Status); err != nil {
		return err
	}
	return ErrWriteFailed
}

// MGet coordinates a batch read; vals[i]/found[i] report keys[i]. A missing
// key has found[i] false and vals[i] nil; a present empty value has found[i]
// true and vals[i] a zero-length non-nil slice.
func (b *respBackend) MGet(keys [][]byte) ([][]byte, []bool, error) {
	if len(keys) > wire.MaxBatchKeys {
		return nil, nil, errBatchTooLarge
	}
	sk := make([]string, len(keys))
	for i, k := range keys {
		if len(k) > wire.MaxKeyLen {
			return nil, nil, errKeyTooLong
		}
		sk[i] = string(k)
	}
	subs, where := b.n.coordinateBatchRead(uint8(b.lvl), sk)
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	for i := range sk {
		ref := where[i]
		if sb := ref.sb; sb.found != nil && sb.found[ref.j] {
			found[i] = true
			vals[i] = append([]byte{}, (*sb.vbuf)[sb.offs[ref.j]:sb.offs[ref.j+1]]...)
		}
	}
	for _, sb := range subs {
		putBuf(sb.vbuf)
	}
	return vals, found, nil
}

// MSet coordinates a batch write under one shared version stamp. Per-key
// shortfalls surface as an error (RESP MSET has no partial-success reply).
func (b *respBackend) MSet(keys, vals [][]byte) error {
	if len(keys) > wire.MaxBatchKeys {
		return errBatchTooLarge
	}
	sk := make([]string, len(keys))
	for i, k := range keys {
		if err := checkKV(k, vals[i]); err != nil {
			return err
		}
		sk[i] = string(k)
	}
	cp, arena := cloneValues(vals)
	return b.writeSync(batchGather(sk, cp, arena))
}

// Info renders the node's stats snapshot as a RESP INFO-style text block.
func (b *respBackend) Info() string {
	return b.n.StatsSnapshot().InfoText()
}
