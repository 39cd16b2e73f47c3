package lsm

import (
	"encoding/binary"
	"errors"
)

// The write path. Every mutation — a single Put, a streamed membership page,
// a shard writer's folded drain of 64 pipelined writes — is one batch through
// one body, apply, and the engine's durability argument is a single
// invariant:
//
//	one batch = one WAL commit group = one memtable generation
//
// apply runs the version guard, inserts the surviving records into the
// memtable while appending them to the WAL as one commit group, and only
// then asks whether the memtable has outgrown FlushBytes. Flush is therefore
// decided between batches, never inside one: a flush retires exactly the WAL
// files whose every record sits in the SST it wrote, so no acknowledged
// record can be left in a fresh memtable with its log already deleted.
//
// The memtable generation owns its bytes (memtable.go): the insert copies
// each record's key and value into the generation's chunks, and the WAL
// record is encoded from that copy. A write batch allocates nothing per
// record or per batch — no value arena, no kept-keys column, no commit
// group object — and the caller's keys and values are free again on return.
//
// Versions. The kvstore coordinator stamps every write with a 64-bit
// HLC-style version and the engine stores it as an 8-byte little-endian
// prefix of the value bytes, so the WAL, SST, and manifest formats carry
// versions without any change: a versioned record is an ordinary record
// whose value happens to start with its version. A record with a non-zero
// version lands only if the key's stored version is lower (last write wins;
// absent and tombstoned keys always lose) — the check and the write share
// one critical section, so a read-repair write-back, a replayed hint, or a
// streamed pre-move value can never clobber a newer value. Version 0 means
// unconditional: the record is stored without a prefix and without a guard.
// The kvstore never sends it (every coordinated write is stamped); it serves
// the engine's own unversioned API (Put, PutAll, Delete).
//
// Because the guard holds s.mu, a key's stored version is non-decreasing
// over time, which means newest-run-wins (the engine's native shadowing
// rule) and highest-version-wins coincide: flush and compaction need no
// version awareness. That includes records of one batch: a record is guarded
// against every record before it in the batch, so a drain of [k@5, k@3]
// keeps k@5, and the WAL logs only the records that landed, so replay
// reaches the same state.

// VersionLen is the size of the version prefix inside stored value bytes.
const VersionLen = 8

// ErrUnreadable reports that the existing value's version could not be read
// (I/O error on a file-backed run), so a guarded write cannot decide.
var ErrUnreadable = errors.New("lsm: existing value unreadable")

// AppendVersioned appends the wire/storage encoding of (ver, val) to dst:
// 8 bytes of little-endian version followed by the payload.
func AppendVersioned(dst []byte, ver uint64, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ver)
	return append(dst, val...)
}

// SplitVersioned splits a raw stored value into its version and payload.
// Values shorter than the prefix (written by the unversioned API) read as
// version 0 with the raw bytes as payload.
func SplitVersioned(raw []byte) (ver uint64, val []byte) {
	if len(raw) < VersionLen {
		return 0, raw
	}
	return binary.LittleEndian.Uint64(raw), raw[VersionLen:]
}

// ApplyMulti applies a write batch as one WAL commit group: record i is a put
// of vals[i], or a tombstone when dels[i] is set (vals[i] ignored; dels may
// be nil for all puts). A non-zero vers[i] stores the record version-prefixed
// under the last-write-wins guard — against the store and against the
// batch's earlier records — and a record the guard rejects is skipped
// silently — idempotent success, the contract hint replay, read repair and
// membership streaming rely on. vers[i] == 0 applies unconditionally and
// raw. A nil return in durable mode means the whole batch is on disk.
//
// ApplyMulti copies keys and values into the memtable and retains neither
// past return: the caller may reuse or overwrite every buffer at once. An
// overwrite whose value fits the key's memtable slot reuses the slot.
//
// A tombstone stores no version (versionLocked reports tombstoned keys
// absent), so any later versioned write may land; the window this opens for
// a delayed pre-delete write is documented in DESIGN.md.
func (s *Store) ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error {
	seq, err := s.apply(keys, vers, vals, dels)
	if err != nil {
		return err
	}
	return s.waitCommit(seq)
}

// waitCommit blocks until WAL commit group seq (from apply) is durable; 0
// is no group.
func (s *Store) waitCommit(seq uint64) error {
	if seq == 0 {
		return nil
	}
	return s.wal.wait(seq)
}

// apply is ApplyMulti up to (not including) the commit wait, and the only
// place the store is mutated: guard, memtable insert with WAL append, then
// the flush decision, all in one critical section. It returns the batch's
// WAL commit group (0: nothing logged). A sharded store starts every touched
// shard's sub-batch here before waiting on any of them, so the shards'
// group commits overlap.
func (s *Store) apply(keys []string, vers []uint64, vals [][]byte, dels []bool) (uint64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	seq, err := s.applyLocked(keys, vers, vals, dels)
	if err == nil {
		s.flushLocked(s.opts.FlushBytes)
	}
	s.mu.Unlock()
	return seq, err
}

// applyLocked is apply's critical section up to the flush decision, in two
// passes. The guard pass checks each versioned record against the
// pre-batch store and notes its memtable slot; it is the only pass that
// reads runs and the only one that can fail, so a failed batch changes
// nothing. The insert pass takes the WAL (a closed or wedged log fails the
// batch here, still unchanged), re-checks each surviving record against its
// memtable slot — which by now holds the batch's earlier records, so a later
// record loses to an earlier, higher version — copies it into the slot and
// logs the stored copy.
func (s *Store) applyLocked(keys []string, vers []uint64, vals [][]byte, dels []bool) (uint64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	at := s.at[:0]
	for i, k := range keys {
		sl, held := s.mem.find(k)
		if !held {
			sl = unheld
		}
		if ver := vers[i]; ver != 0 {
			cur, present := uint64(0), false
			if held {
				cur, present = s.mem.version(sl)
			} else {
				var err error
				if cur, present, err = s.runsVersionLocked(k); err != nil {
					s.at = at
					return 0, err
				}
			}
			if present && cur >= ver {
				sl = rejected
			}
		}
		at = append(at, sl)
	}
	s.at = at
	if s.wal != nil {
		if err := s.wal.lockAppend(); err != nil {
			return 0, err
		}
	}
	nput, ndel := 0, 0
	for i, k := range keys {
		sl := at[i]
		switch {
		case sl == rejected:
			continue
		case sl == unheld:
			// Absent before the batch, unless an earlier record inserted it.
			var held bool
			if sl, held = s.mem.find(k); !held {
				sl = s.mem.insert(k)
			}
		}
		if ver := vers[i]; ver != 0 {
			if cur, present := s.mem.version(sl); present && cur >= ver {
				continue // an earlier record of this batch landed a newer version
			}
		}
		del := dels != nil && dels[i]
		v := s.mem.set(sl, vers[i], vals[i], del)
		if s.wal != nil {
			s.wal.appendLocked(k, v)
		}
		if del {
			ndel++
		} else {
			nput++
		}
	}
	var seq uint64
	if s.wal != nil {
		seq = s.wal.unlockAppend(nput + ndel)
	}
	s.c.deletes.Add(uint64(ndel))
	s.c.puts.Add(uint64(nput))
	return seq, nil
}

// The guard pass's marks in Store.at, beside a memtable slot: a record the
// guard rejected, and one whose key the memtable did not hold.
const (
	rejected int32 = -1
	unheld   int32 = -2
)

// versionLocked reads the version of key's newest live record. present=false
// means absent or tombstoned (any versioned write may apply). Unversioned
// short values read as version 0.
func (s *Store) versionLocked(key string) (ver uint64, present bool, err error) {
	if sl, ok := s.mem.find(key); ok {
		ver, present := s.mem.version(sl)
		return ver, present, nil
	}
	return s.runsVersionLocked(key)
}

// runsVersionLocked is versionLocked over the runs alone, for a key the
// memtable does not hold.
func (s *Store) runsVersionLocked(key string) (ver uint64, present bool, err error) {
	for _, r := range s.runs {
		if !r.bloom.MayContain(key) {
			continue
		}
		if i := r.find(key); i >= 0 {
			if r.tombstone(i) {
				return 0, false, nil
			}
			return r.version(i)
		}
	}
	return 0, false, nil
}

// version reads the 8-byte version prefix of entry i, touching at most
// VersionLen bytes of a file-backed run.
func (r *run) version(i int) (uint64, bool, error) {
	if r.vals != nil {
		ver, _ := SplitVersioned(r.vals[i])
		return ver, true, nil
	}
	n := int(r.vlens[i] &^ tombstoneBit)
	if n < VersionLen {
		return 0, true, nil
	}
	if r.cache != nil {
		return binary.LittleEndian.Uint64(r.cache[r.offs[i]:]), true, nil
	}
	var b [VersionLen]byte
	if _, err := r.f.ReadAt(b[:], r.offs[i]); err != nil {
		return 0, true, ErrUnreadable
	}
	return binary.LittleEndian.Uint64(b[:]), true, nil
}

// GetVersioned appends the newest payload of key to dst (version prefix
// stripped in place — no extra allocation) and returns the stored version.
func (s *Store) GetVersioned(dst []byte, key string) (_ []byte, ver uint64, ok bool) {
	at := len(dst)
	out, ok := s.GetAppend(dst, key)
	if !ok {
		return dst, 0, false
	}
	if len(out)-at < VersionLen {
		return out, 0, true // unversioned legacy value
	}
	ver = binary.LittleEndian.Uint64(out[at:])
	copy(out[at:], out[at+VersionLen:])
	return out[: len(out)-VersionLen : cap(out)], ver, true
}

// Version reports the current version of key (0, false when absent).
func (s *Store) Version(key string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, false
	}
	ver, present, err := s.versionLocked(key)
	if err != nil || !present {
		return 0, false
	}
	return ver, true
}

// Sidecar log helpers. The kvstore hint log reuses the WAL record framing
// ([plen u32][crc32c u32][payload]) for its own durable per-peer queues, so
// torn-tail and corruption handling behave identically to the WAL proper.

// LogPut is the op byte sidecar logs should use for key/value records.
const LogPut = walPut

// LogDelete is the op byte sidecar logs should use for tombstone records.
// Unlike the store WAL's own delete records, a sidecar tombstone carries a
// value section exactly like LogPut — the kvstore hint log stores the
// coordinator's version stamp there, so a recovered delete hint replays
// under the same last-write-wins guard as a fresh one.
const LogDelete = walDelHint

// AppendLogRecord appends one CRC-framed record in the WAL record format.
func AppendLogRecord(b []byte, op byte, key string, val []byte) []byte {
	return appendWALRecord(b, op, key, val)
}

// ReplayLog reads records from path in order, calling apply for each valid
// one, and returns the length of the valid prefix. key and val alias the
// log's bytes and are valid only during the call. Parsing stops without
// error at the first torn or corrupt record.
func ReplayLog(path string, apply func(op byte, key string, val []byte)) (int64, error) {
	return replayWAL(path, apply)
}

// TruncateLog cuts path down to validLen, discarding a torn tail.
func TruncateLog(path string, validLen int64) error {
	return truncateWAL(path, validLen)
}
