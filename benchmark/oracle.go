package main

import "sync/atomic"

// The oracle is a per-key last-write-wins register model. Writes to one key
// never overlap (a writer holds the key's busy bit from send to ack, and an
// op that finds its key busy moves to the next free key), so sequences are
// issued and acked in order and a read is judged by two numbers: the floor,
// the last write acked before the read was sent, and the ceiling, the last
// write issued before its reply arrived.

// keyState packs a key's register: acked = seq<<1 | deleted, issued =
// seq<<1 | busy, delSeq = the highest sequence issued as a delete.
type keyState struct {
	acked  atomic.Uint64
	issued atomic.Uint64
	delSeq atomic.Uint64
}

// verdict classifies one checked read (the stale-read taxonomy of the
// load-test analysis in SNIPPETS.md: version mismatch vs missing key).
type verdict uint8

const (
	readOK verdict = iota
	readIntegrity
	readStaleVersion
	readStaleMissing
	readResurrected
	nVerdicts
)

type oracle struct {
	ks    *keyspace
	keys  []keyState
	count [nVerdicts]atomic.Int64
}

func newOracle(ks *keyspace) *oracle {
	return &oracle{ks: ks, keys: make([]keyState, len(ks.names))}
}

// lockWrite claims the next sequence of the first non-busy key at or after
// k. It reports the key it claimed.
func (o *oracle) lockWrite(k int32, del bool) (int32, uint64) {
	for {
		s := &o.keys[k]
		cur := s.issued.Load()
		if cur&1 == 0 && s.issued.CompareAndSwap(cur, (cur>>1+1)<<1|1) {
			seq := cur>>1 + 1
			if del {
				s.delSeq.Store(seq)
			}
			return k, seq
		}
		k = (k + 1) % int32(len(o.keys))
	}
}

// ackWrite records an acknowledged write and frees the key.
func (o *oracle) ackWrite(k int32, seq uint64, del bool) {
	a := seq << 1
	if del {
		a |= 1
	}
	o.keys[k].acked.Store(a)
	o.keys[k].issued.Store(seq << 1)
}

// failWrite frees the key of a write whose outcome is unknown: the floor
// stays, the ceiling keeps the sequence.
func (o *oracle) failWrite(k int32, seq uint64) { o.keys[k].issued.Store(seq << 1) }

// floor is read before a read is sent.
func (o *oracle) floor(k int32) uint64 { return o.keys[k].acked.Load() }

// ackedSeq reports the last acked sequence of k and whether it was a delete.
func (o *oracle) ackedSeq(k int32) (seq uint64, deleted bool) {
	a := o.keys[k].acked.Load()
	return a >> 1, a&1 != 0
}

// check judges the reply to a read of k that was sent at the given floor,
// and counts the verdict.
func (o *oracle) check(k int32, floor uint64, val []byte, found bool) verdict {
	v := o.judge(k, floor, val, found)
	o.count[v].Add(1)
	return v
}

func (o *oracle) judge(k int32, floor uint64, val []byte, found bool) verdict {
	s := &o.keys[k]
	floorSeq, floorDel := floor>>1, floor&1 != 0
	if !found {
		if floorDel || floorSeq == 0 || s.delSeq.Load() > floorSeq {
			return readOK
		}
		return readStaleMissing
	}
	seq, ok := o.ks.checkValue(val, k)
	if !ok || seq > s.issued.Load()>>1 || (floorDel && seq == floorSeq) {
		return readIntegrity
	}
	if seq < floorSeq {
		// An older value surfaced. With a delete acked, or issued since the
		// floor, that is the tombstone gap: an applied tombstone carries no
		// version, so in a quorum merge it loses to any older value a
		// lagging replica still holds.
		if floorDel || s.delSeq.Load() > floorSeq {
			return readResurrected
		}
		return readStaleVersion
	}
	return readOK
}

func (o *oracle) stale() int64 {
	return o.count[readStaleVersion].Load() + o.count[readStaleMissing].Load()
}
