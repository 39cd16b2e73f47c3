package kvstore

import (
	"fmt"
	"sync"

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
//	GET   → the read ladder as a batch of one (pointRead, readpath.go), the
//	        path wire clients take: a data read to the C3-best replica plus
//	        R-1 digests, and the background read repair of its probes
//	SET   → coordinateWrite, the one write coordinator, plus a wait
//	        (writeSync): the full replicated write fan-out, version-stamped,
//	        hint-banked on transport failure
//	DEL   → an existence check — the read ladder with every leg a digest,
//	        versions only — then the same write with the tombstone flag set
//	MGET  → the read ladder over the whole batch
//	MSET  → the same coordinator and wait, one version stamp for the batch
//
// Ownership: resp hands the adapter arguments aliasing its parse arena. The
// read paths copy what they keep (the read ladder copies its keys into its
// own arena), so reads pass views; a write's keys and values are copied into
// one pooled buffer before entering the write coordinator, whose gather
// recycles it after the last leg (the store copies what it keeps). GET
// returns fresh memory owned by the caller; MGET fills the caller's
// resp.MGetReply, its values packed into the reply's reused buffer.
// Found/miss travels as an explicit bool end to end — a present-but-empty
// value reaches RESP as a zero-length bulk string, a miss as a nil reply,
// never conflated.

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
	raw, found, status := b.n.pointRead(uint8(b.lvl), pooledString(key), nil, readValues)
	if err := readStatusErr(status); err != nil || !found {
		return nil, false, err
	}
	_, payload := lsm.SplitVersioned(raw)
	return payload, true, nil
}

// Set coordinates a replicated write at the backend's level.
func (b *respBackend) Set(key, val []byte) error {
	return b.write(key, val, false)
}

// Del coordinates a replicated delete. deleted reports whether the key was
// readable at the backend's level just before the tombstone landed — the
// best a leaderless store can answer for Redis's "number of keys removed"
// (the check and the delete are not atomic; concurrent writers can race).
// An existence check that misses the level fails the DEL before anything is
// written, as GET fails: the count it would answer is unknown.
func (b *respBackend) Del(key []byte) (bool, error) {
	if err := checkKV(key, nil); err != nil {
		return false, err
	}
	existed, err := b.exists(key)
	if err != nil {
		return false, err
	}
	if err := b.write(key, nil, true); err != nil {
		return false, err
	}
	return existed, nil
}

// exists reads key at the backend's level for the found bit alone, through
// the ladder with every leg a digest: versions only.
func (b *respBackend) exists(key []byte) (bool, error) {
	var vb [wire.VersionPrefix]byte
	_, found, status := b.n.pointRead(uint8(b.lvl), pooledString(key), vb[:0], readVersions)
	if err := readStatusErr(status); err != nil {
		return false, err
	}
	return found, nil
}

func (b *respBackend) write(key, val []byte, del bool) error {
	if err := checkKV(key, val); err != nil {
		return err
	}
	k, v, vb := pooledKV(key, val)
	return b.writeSync(pointGather(k, v, del, vb))
}

// donePool recycles writeSync's decision channels. A channel is received
// from exactly once per use — the gather sends its one decision — so it goes
// back empty.
var donePool = sync.Pool{New: func() any { return make(chan wire.WriteResp, 1) }}

// writeSync runs the one write coordinator and waits for its decision: a
// RESP reply is synchronous by protocol, so the gateway's write is the async
// path plus a wait on a pooled 1-buffered channel. Legs may outlive the
// decision, so the gather — not this return — releases the buffer backing
// the keys and values.
func (b *respBackend) writeSync(g *writeGather) error {
	done := donePool.Get().(chan wire.WriteResp)
	g.done = done
	b.n.coordinateWrite(g, b.lvl)
	out := <-done
	donePool.Put(done)
	if out.OK {
		return nil
	}
	if err := writeStatusErr(out.Status); err != nil {
		return err
	}
	return ErrWriteFailed
}

// MGet coordinates a batch read into r: r.Vals[i]/r.Found[i] report
// keys[i]. A missing key has Found[i] false and Vals[i] nil; a present empty
// value has Found[i] true and Vals[i] a zero-length non-nil slice. The values
// share r.Buf, so a caller reusing r allocates nothing per call. A sub-batch
// that missed the level fails the whole reply, as GET fails, rather than
// answering its keys as misses.
func (b *respBackend) MGet(keys [][]byte, r *resp.MGetReply) error {
	if len(keys) > wire.MaxBatchKeys {
		return errBatchTooLarge
	}
	for _, k := range keys {
		if len(k) > wire.MaxKeyLen {
			return errKeyTooLong
		}
	}
	sk := keyViewsPool.Get().(*[]string)
	for _, k := range keys {
		*sk = append(*sk, pooledString(k))
	}
	g := b.n.newReadGather(uint8(b.lvl), *sk, readValues) // copies the keys it keeps
	clear(*sk)
	*sk = (*sk)[:0]
	keyViewsPool.Put(sk)
	g.run()
	if err := readStatusErr(g.status); err != nil {
		g.release()
		return err
	}
	total := 0
	for i := range keys {
		v, _, _ := g.value(g.at[i])
		total += len(v)
	}
	if r.Buf == nil || cap(r.Buf) < total {
		r.Buf = make([]byte, 0, total)
	}
	buf, vals, found := r.Buf[:0], r.Vals[:0], r.Found[:0]
	for i := range keys {
		v, _, ok := g.value(g.at[i])
		var val []byte
		if ok {
			at := len(buf)
			buf = append(buf, v...) // within capacity: earlier views stay put
			val = buf[at:len(buf):len(buf)]
		}
		vals, found = append(vals, val), append(found, ok)
	}
	g.release()
	r.Buf, r.Vals, r.Found = buf, vals, found
	return nil
}

// keyViewsPool recycles MGet's string views of its keys, which live only
// until the read gather has copied them.
var keyViewsPool = sync.Pool{New: func() any { return new([]string) }}

// MSet coordinates a batch write under one shared version stamp. Per-key
// shortfalls surface as an error (RESP MSET has no partial-success reply).
func (b *respBackend) MSet(keys, vals [][]byte) error {
	if len(keys) > wire.MaxBatchKeys {
		return errBatchTooLarge
	}
	for i, k := range keys {
		if err := checkKV(k, vals[i]); err != nil {
			return err
		}
	}
	return b.writeSync(batchGather(cloneBatch(keys, vals)))
}

// Info renders the node's stats snapshot as a RESP INFO-style text block.
func (b *respBackend) Info() string {
	return b.n.StatsSnapshot().InfoText()
}
