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
// apply runs the version guard, appends the surviving records to the WAL as
// one commit group, inserts them into the memtable, and only then asks
// whether the memtable has outgrown FlushBytes. Flush is therefore decided
// between batches, never inside one: a flush retires exactly the WAL files
// whose every record sits in the SST it wrote, so no acknowledged record can
// be left in a fresh memtable with its log already deleted.
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
// version awareness.

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
// under the last-write-wins guard, and a record the guard rejects is skipped
// silently — idempotent success, the contract hint replay, read repair and
// membership streaming rely on. vers[i] == 0 applies unconditionally and
// raw. A nil return in durable mode means the whole batch is on disk.
//
// A tombstone stores no version (versionLocked reports tombstoned keys
// absent), so any later versioned write may land; the window this opens for
// a delayed pre-delete write is documented in DESIGN.md.
func (s *Store) ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error {
	cw, err := s.apply(keys, vers, vals, dels)
	if err != nil {
		return err
	}
	return waitCommit(cw)
}

// apply is ApplyMulti up to (not including) the commit wait, and the only
// place the store is mutated: guard, WAL append, memtable insert, then the
// flush decision, all in one critical section. A sharded store starts every
// touched shard's sub-batch here before waiting on any of them, so the
// shards' group commits overlap.
func (s *Store) apply(keys []string, vers []uint64, vals [][]byte, dels []bool) (*walCommit, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	total := 0
	for _, v := range vals {
		total += VersionLen + len(v)
	}
	// Private copies of the surviving values, carved from one arena sized for
	// the worst case so it never regrows under the slices handed out below.
	// A nil copy is a tombstone — the memtable's and the WAL's convention.
	arena := make([]byte, 0, total)
	s.mu.Lock()
	cw, err := s.applyLocked(keys, vers, vals, dels, arena)
	if err == nil {
		s.flushLocked(s.opts.FlushBytes)
	}
	s.mu.Unlock()
	return cw, err
}

// applyLocked is apply's critical section up to the flush decision: guard,
// WAL append, memtable insert. Its kept-keys and copies columns are the
// store's own scratch; the WAL copies the records into its buffer and the
// memtable keeps only the elements, so the columns go back before the flush
// decision, whose backpressure wait releases the lock to other batches.
func (s *Store) applyLocked(keys []string, vers []uint64, vals [][]byte, dels []bool, arena []byte) (*walCommit, error) {
	if s.closed {
		return nil, ErrClosed
	}
	wk, cps := s.wk[:0], s.cps[:0]
	defer func() {
		clear(wk) // drop this batch's keys and arena views
		clear(cps)
		s.wk, s.cps = wk[:0], cps[:0]
	}()
	for i, k := range keys {
		ver := vers[i]
		if ver != 0 {
			cur, present, err := s.versionLocked(k)
			if err != nil {
				return nil, err
			}
			if present && cur >= ver {
				continue
			}
		}
		var cp []byte
		if dels == nil || !dels[i] {
			at := len(arena)
			if ver != 0 {
				arena = binary.LittleEndian.AppendUint64(arena, ver)
			}
			arena = append(arena, vals[i]...)
			cp = arena[at:len(arena):len(arena)]
		}
		wk = append(wk, k)
		cps = append(cps, cp)
	}
	if len(wk) == 0 {
		return nil, nil
	}
	var cw *walCommit
	if s.wal != nil {
		var err error
		if cw, err = s.wal.addBatch(wk, cps); err != nil {
			return nil, err
		}
	}
	ndel := 0
	for i, k := range wk {
		if cps[i] == nil {
			ndel++
		}
		s.putLocked(k, cps[i])
	}
	s.c.deletes.Add(uint64(ndel))
	s.c.puts.Add(uint64(len(wk) - ndel))
	return cw, nil
}

// versionLocked reads the version of key's newest live record. present=false
// means absent or tombstoned (any versioned write may apply). Unversioned
// short values read as version 0.
func (s *Store) versionLocked(key string) (ver uint64, present bool, err error) {
	if v, ok := s.mem[key]; ok {
		if v == nil {
			return 0, false, nil
		}
		ver, _ := SplitVersioned(v)
		return ver, true, nil
	}
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
// one, and returns the length of the valid prefix. Parsing stops without
// error at the first torn or corrupt record.
func ReplayLog(path string, apply func(op byte, key string, val []byte)) (int64, error) {
	return replayWAL(path, apply)
}

// TruncateLog cuts path down to validLen, discarding a torn tail.
func TruncateLog(path string, validLen int64) error {
	return truncateWAL(path, validLen)
}
