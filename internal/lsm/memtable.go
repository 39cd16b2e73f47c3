package lsm

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// A memtable generation owns every byte it indexes. apply copies each
// surviving record's key and value into the generation's append-only chunks
// under s.mu, so ApplyMulti retains nothing of its caller's: a replica can
// apply keys and values straight out of a pooled frame buffer and recycle
// it on return.
//
// Keys and values fill separate chunks, so the keys the index hashes and
// compares sit densely. Chunks grow from minChunk to memChunk bytes (a
// record too large to share one gets an allocation of its own), are
// allocated on demand and are never reused across generations: a flushed
// in-memory run keeps views into its generation's values, so a new
// generation always starts on fresh chunks. The index maps
// each chunk-backed key to a slot holding the key's value view. An
// overwrite that fits the slot's room is rewritten in place, so a hot key of
// fixed-size values costs no chunk space after its first write; a value
// that outgrows its room gets a fresh one of at least twice the size, which
// bounds the dead bytes a growing key leaves behind.
//
// The index is never assigned through a caller's key: a map assignment to an
// existing entry replaces the stored key string with the one assigned, which
// would make the index alias the caller's buffer. An overwrite edits the
// slot only.
//
// bytes counts live key and value bytes exactly as the FlushBytes threshold
// always has — a key once while present, plus its current value (a tombstone
// counts zero) — so slot rooms and dead bytes do not move the flush cadence.

// A generation's chunks start at minChunk bytes and double up to memChunk,
// the largest small-object size class, so a store that holds little
// allocates little and a full one fills 32 KiB chunks.
const (
	minChunk = 1 << 10
	memChunk = 32 << 10
)

type memtable struct {
	idx    map[string]int32 // chunk-backed key → slot
	slots  []memSlot
	keys   []byte // the key chunk being filled; len is its used prefix
	vals   []byte // the value chunk being filled
	bytes  int    // live key+value bytes, the FlushBytes measure
	kbytes int    // key bytes, which size a flushed run's key arena
}

// memSlot is one key's record. val is the stored value (version prefix and
// payload), a view into a chunk whose cap is the room an overwrite may
// reuse; a tombstone keeps its room with del set. A slot just inserted is a
// tombstone until set.
type memSlot struct {
	val []byte
	del bool
}

// newMemtable starts a generation presized for n keys — the previous
// generation's count, so a steady key set does not regrow the index.
func newMemtable(n int) memtable {
	return memtable{idx: make(map[string]int32, n), slots: make([]memSlot, 0, n)}
}

func (m *memtable) len() int { return len(m.slots) }

// find returns key's slot, if the generation holds the key.
func (m *memtable) find(key string) (int32, bool) {
	i, ok := m.idx[key]
	return i, ok
}

// get returns key's stored value; del reports a tombstone, ok whether the
// generation holds the key at all.
func (m *memtable) get(key string) (val []byte, del, ok bool) {
	i, ok := m.idx[key]
	if !ok {
		return nil, false, false
	}
	sl := &m.slots[i]
	return sl.val, sl.del, true
}

// version reports the version of slot i's record; present=false means a
// tombstone.
func (m *memtable) version(i int32) (ver uint64, present bool) {
	sl := &m.slots[i]
	if sl.del {
		return 0, false
	}
	ver, _ = SplitVersioned(sl.val)
	return ver, true
}

// insert adds key, which the generation must not hold, as a fresh slot: its
// bytes are copied into a chunk, and the index is keyed by that copy.
func (m *memtable) insert(key string) int32 {
	k := alloc(&m.keys, len(key))
	copy(k, key)
	ck := unsafe.String(unsafe.SliceData(k), len(k))
	i := int32(len(m.slots))
	m.slots = append(m.slots, memSlot{del: true})
	m.idx[ck] = i
	m.bytes += len(key)
	m.kbytes += len(key)
	return i
}

// set stores slot i's record and returns the stored value — the version
// prefix (when ver is non-zero) followed by val — or nil for a tombstone.
// val is not retained.
func (m *memtable) set(i int32, ver uint64, val []byte, del bool) []byte {
	sl := &m.slots[i]
	m.bytes -= len(sl.val)
	if del {
		sl.val, sl.del = sl.val[:0], true
		return nil
	}
	n := len(val)
	if ver != 0 {
		n += VersionLen
	}
	room := sl.val[:0]
	if room == nil || cap(room) < n {
		room = alloc(&m.vals, max(n, 2*cap(room)))[:0]
	}
	if ver != 0 {
		room = binary.LittleEndian.AppendUint64(room, ver)
	}
	room = append(room, val...)
	sl.val, sl.del = room, false
	m.bytes += len(room)
	return room
}

// put stores key's record, unguarded (WAL replay).
func (m *memtable) put(key string, ver uint64, val []byte, del bool) {
	i, ok := m.find(key)
	if !ok {
		i = m.insert(key)
	}
	m.set(i, ver, val, del)
}

// alloc carves n bytes from *chunk, starting a fresh chunk — twice the last
// one, from minChunk up to memChunk — when they do not fit. The result is
// never nil (an empty value must stay distinguishable from a tombstone) and
// its cap is exactly n.
func alloc(chunk *[]byte, n int) []byte {
	c := *chunk
	if c == nil || cap(c)-len(c) < n {
		if n > memChunk/4 {
			return make([]byte, n)
		}
		size := max(minChunk, min(2*cap(c), memChunk))
		for size < n {
			size *= 2
		}
		c = make([]byte, 0, size)
	}
	at := len(c)
	*chunk = c[:at+n]
	return c[at : at+n : at+n]
}

// run returns the generation as an in-memory run sorted by key. Its keys
// and values are views into the generation's chunks (nil value =
// tombstone): a flush copies the keys into the run it builds, and only a
// retired generation's values may be kept.
func (m *memtable) run() *run {
	r := &run{keys: make([]string, 0, len(m.slots)), vals: make([][]byte, len(m.slots)), kbytes: m.kbytes}
	for k := range m.idx {
		r.keys = append(r.keys, k)
	}
	slices.Sort(r.keys)
	for j, k := range r.keys {
		if sl := &m.slots[m.idx[k]]; !sl.del {
			r.vals[j] = sl.val[:len(sl.val):len(sl.val)]
		}
	}
	return r
}
