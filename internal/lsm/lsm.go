// Package lsm is a compact log-structured merge storage engine: an in-memory
// memtable that flushes into immutable sorted runs guarded by Bloom filters,
// with full compaction — a streaming merge run in the background, off the
// store lock — once a flush leaves more than MaxRuns runs (compact.go). It is
// the storage substrate behind the TCP key-value store (internal/kvstore) —
// the real-system counterpart of the service-time model in internal/cassim,
// exhibiting the same phenomena the paper discusses: read amplification
// growing with the number of runs, and compaction as a period of
// concentrated work.
//
// There is one write path. Every mutation is a batch through ApplyMulti
// (versioned.go), and one batch is one WAL commit group is one memtable
// generation: the flush threshold is checked between batches, never inside
// one, so a flush can only retire WAL files whose every record it persisted.
// Put, PutAll and Delete are one-line wrappers over it. A memtable
// generation owns its bytes (memtable.go): a write copies its keys and
// values into the generation's chunks, so the engine retains nothing a
// caller passed in, and every run owns its keys.
//
// With Options.Dir set the store is durable and crash-recoverable: every
// batch is appended to a group-committed write-ahead log before it is
// acknowledged, memtable flushes persist runs as SST files installed by
// atomic rename, and a manifest names the live SST set plus the WAL
// watermark so Open replays exactly the unflushed WAL suffix. With Dir empty
// the engine keeps its original pure in-memory behavior.
package lsm

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Store.
type Options struct {
	// FlushBytes triggers a memtable flush once its payload exceeds this
	// size. Default 4 MiB.
	FlushBytes int
	// MaxRuns starts a background full compaction when a flush exceeds it;
	// flushes wait for that compaction rather than stack runs beyond
	// 2×MaxRuns. Default 8.
	MaxRuns int
	// Dir, when non-empty, makes the store durable: WAL, SSTs, and manifest
	// live there and Open recovers whatever state the directory holds.
	// Empty keeps the store purely in memory.
	Dir string
	// SyncInterval selects the WAL sync policy. Zero (the default) is
	// strict group commit: every commit group fsyncs before acking, so
	// acked writes survive power loss. A positive interval is periodic
	// sync — Cassandra's default commitlog trade: acks wait only for
	// write(2), so they survive process death (kill -9), and a background
	// fsync runs at most every SyncInterval to bound the power-loss
	// window.
	SyncInterval time.Duration

	// hook, when set (package-internal, tests only), is called at named
	// points inside flush and compaction so crash tests can capture the
	// exact on-disk state between sub-steps.
	hook func(event string)
}

func (o Options) withDefaults() Options {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 4 << 20
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 8
	}
	return o
}

// Stats is a snapshot of storage activity counters. RunsConsulted/Gets is
// the engine's read amplification; BloomSkips counts runs skipped by filters.
// WALRecords/GroupCommits is the group-commit batching factor (records made
// durable per fsync).
type Stats struct {
	Gets, Puts, Deletes  uint64
	Flushes, Compactions uint64
	RunsConsulted        uint64
	BloomSkips           uint64
	WALRecords           uint64
	GroupCommits         uint64
	IOErrors             uint64
}

// counters are the live atomic counters behind Stats (reads update them
// under the shared lock, so they must be atomic).
type counters struct {
	gets, puts, deletes  atomic.Uint64
	flushes, compactions atomic.Uint64
	runsConsulted        atomic.Uint64
	bloomSkips           atomic.Uint64
	ioErrors             atomic.Uint64
}

// run is an immutable sorted key/value image. In-memory runs hold values in
// vals (nil = tombstone); file-backed runs hold per-key offsets into an SST
// file and read values on demand. A run's keys are its own — copied into a
// key arena of the run's (sstWriter), or decoded from its SST index — never
// views into a memtable generation or another run, so a surviving key pins
// nothing but the run it sits in.
type run struct {
	keys  []string
	vals  [][]byte // in-memory runs only
	offs  []int64  // file-backed runs: value offset in f
	vlens []uint32 // file-backed runs: value length | tombstoneBit
	bloom *Bloom
	bytes int
	num   uint64   // SST file number (file-backed only)
	f     *os.File // backing SST (nil for in-memory runs)
	cache []byte   // retained copy of the SST data section (small runs):
	// reads hit memory, the file exists for recovery. nil = read via f.

	kbytes int // key bytes, which size a merge output's key arena chunks
}

// find returns the index of key in the run, or -1.
func (r *run) find(key string) int {
	i := sort.SearchStrings(r.keys, key)
	if i < len(r.keys) && r.keys[i] == key {
		return i
	}
	return -1
}

// Store is the engine. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	opts    Options
	dir     string   // empty = in-memory
	mem     memtable // the live generation
	runs    []*run   // newest first; replaced whole, never edited in place
	wal     *wal     // nil in in-memory mode
	man     manifest
	walNums []uint64 // WAL files on disk, ascending; last is the append target
	closed  bool
	c       counters

	// compacting is set while a compaction merges outside mu; idle (on mu)
	// is broadcast when it clears.
	compacting bool
	idle       *sync.Cond

	// at is apply's guard column — record i's memtable slot, or rejected or
	// unheld — reused under mu from batch to batch.
	at []int32
}

// Open returns a store. With opts.Dir empty it is a fresh in-memory store
// and never fails. With a directory it recovers: load the manifest, delete
// orphan files a crash may have left (temp files, SSTs and WALs the manifest
// does not reference), open the live SSTs, replay the WAL suffix at or above
// the manifest watermark into the memtable — truncating a torn tail, which
// by the fsync-before-ack rule never held an acknowledged write — and resume
// appending to the newest WAL.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, dir: opts.Dir, mem: newMemtable(0)}
	s.idle = sync.NewCond(&s.mu)
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(s.dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		man = &manifest{next: 1}
	}
	s.man = *man

	live := make(map[uint64]bool, len(s.man.ssts))
	for _, n := range s.man.ssts {
		live[n] = true
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var maxNum uint64
	seen := func(n uint64) {
		if n > maxNum {
			maxNum = n
		}
	}
	for _, ent := range ents {
		name := ent.Name()
		full := filepath.Join(s.dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(full) // torn mid-write; never referenced
		case strings.HasSuffix(name, ".sst"):
			n, perr := strconv.ParseUint(strings.TrimSuffix(name, ".sst"), 10, 64)
			if perr != nil {
				continue
			}
			seen(n)
			if !live[n] {
				os.Remove(full) // written but never installed in the manifest
			}
		case strings.HasSuffix(name, ".wal"):
			n, perr := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
			if perr != nil {
				continue
			}
			seen(n)
			if n < s.man.wal {
				os.Remove(full) // below the watermark: fully flushed into SSTs
			} else {
				s.walNums = append(s.walNums, n)
			}
		}
	}
	if s.man.next <= maxNum {
		s.man.next = maxNum + 1
	}
	sort.Slice(s.walNums, func(i, j int) bool { return s.walNums[i] < s.walNums[j] })

	for _, n := range s.man.ssts {
		r, err := openSST(s.dir, n)
		if err != nil {
			s.releaseRuns()
			return nil, err
		}
		s.runs = append(s.runs, r)
	}

	for i, n := range s.walNums {
		path := filepath.Join(s.dir, walName(n))
		valid, err := replayWAL(path, func(op byte, key string, val []byte) {
			s.mem.put(key, 0, val, op == walDel)
		})
		if err != nil {
			s.releaseRuns()
			return nil, err
		}
		if i == len(s.walNums)-1 {
			if err := truncateWAL(path, valid); err != nil {
				s.releaseRuns()
				return nil, err
			}
		}
	}

	if len(s.walNums) == 0 {
		num := s.allocNum()
		s.man.wal = num
		if err := s.man.store(s.dir); err != nil {
			s.releaseRuns()
			return nil, err
		}
		s.walNums = []uint64{num}
	}
	cur := s.walNums[len(s.walNums)-1]
	if s.wal, err = openWAL(s.dir, cur, opts.SyncInterval); err != nil {
		s.releaseRuns()
		return nil, err
	}
	s.mu.Lock()
	s.flushLocked(s.opts.FlushBytes) // bound recovery-accumulated state immediately
	s.maybeCompactLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) releaseRuns() {
	for _, r := range s.runs {
		r.close()
	}
}

// allocNum hands out the next file number (SSTs and WALs share one space).
func (s *Store) allocNum() uint64 {
	n := s.man.next
	s.man.next++
	return n
}

func (s *Store) hook(event string) {
	if s.opts.hook != nil {
		s.opts.hook(event)
	}
}

// Put stores a copy of val under key, unconditionally and without a version
// prefix. In durable mode it returns once the write's WAL commit group is
// fsynced — the write survives any crash after Put returns nil.
func (s *Store) Put(key string, val []byte) error {
	return s.ApplyMulti([]string{key}, []uint64{0}, [][]byte{val}, nil)
}

// PutAll is Put for a batch: one WAL commit group, one fsync, whatever the
// batch size.
func (s *Store) PutAll(keys []string, vals [][]byte) error {
	return s.ApplyMulti(keys, make([]uint64, len(keys)), vals, nil)
}

// Delete removes key unconditionally (writes a tombstone). Like Put, a nil
// return in durable mode means the tombstone is fsynced and survives crashes.
func (s *Store) Delete(key string) error {
	return s.ApplyMulti([]string{key}, []uint64{0}, [][]byte{nil}, []bool{true})
}

// Get reads the newest value of key into a fresh buffer, consulting the
// memtable and then each run from newest to oldest, skipping runs whose
// Bloom filter excludes the key.
func (s *Store) Get(key string) ([]byte, bool) {
	v, ok := s.GetAppend(nil, key)
	if !ok {
		return nil, false
	}
	if v == nil {
		v = []byte{} // present but empty: stay distinguishable from missing
	}
	return v, true
}

// GetAppend appends the newest value of key to dst, reporting whether the
// key exists (when it does not, dst is returned unchanged). This is Get
// without the intermediate allocation: the TCP store streams values straight
// into outgoing frame buffers with it. File-backed runs read the value
// directly into dst's grown tail, so the hot path stays allocation-free once
// buffers warm up.
func (s *Store) GetAppend(dst []byte, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, false
	}
	s.c.gets.Add(1)
	if v, del, ok := s.mem.get(key); ok {
		if del {
			return dst, false
		}
		return append(dst, v...), true
	}
	for _, r := range s.runs {
		if !r.bloom.MayContain(key) {
			s.c.bloomSkips.Add(1)
			continue
		}
		s.c.runsConsulted.Add(1)
		if i := r.find(key); i >= 0 {
			if r.tombstone(i) {
				return dst, false
			}
			out, ok := r.appendValue(dst, i)
			if !ok {
				s.c.ioErrors.Add(1)
				return dst, false
			}
			return out, true
		}
	}
	return dst, false
}

// Flush forces the memtable into a new run.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked(0)
}

// flushLocked persists the memtable as a new run once it holds at least
// threshold bytes. When a compaction is in flight and runs have reached
// 2×MaxRuns it first waits for that compaction — releasing mu, so the
// threshold is checked again after — and a flush that leaves more than
// MaxRuns runs starts the next one.
//
// Durable ordering: drain the WAL (every memtable byte is on disk before the
// SST exists), write and atomically install the SST file, rotate to a fresh
// WAL, record both in the manifest, and only then delete the superseded WAL
// files. A crash between any two steps recovers: the data is in the old WALs
// until the manifest edit lands, and in the SST after.
func (s *Store) flushLocked(threshold int) {
	if s.mem.bytes < threshold {
		return
	}
	for s.compacting && len(s.runs) >= 2*s.opts.MaxRuns && !s.closed {
		s.idle.Wait()
	}
	if s.mem.len() == 0 || s.mem.bytes < threshold || s.closed {
		return
	}
	if s.wal != nil {
		if err := s.wal.sync(); err != nil {
			return // wedged WAL: keep the memtable, writes are failing anyway
		}
	}
	var num uint64
	if s.dir != "" {
		num = s.allocNum()
	}
	mr := s.mem.run()
	w, err := newSSTWriter(s.dir, num, len(mr.keys), s.mem.bytes, mr.kbytes)
	if err != nil {
		s.c.ioErrors.Add(1)
		return // data stays in memtable + WAL; retried at next threshold
	}
	for i, k := range mr.keys {
		w.add(k, mr.vals[i])
	}
	r, err := w.finish()
	if err != nil {
		s.c.ioErrors.Add(1)
		return
	}
	if s.dir != "" {
		s.hook("flush.sst")
		newWAL := s.allocNum()
		if err := s.wal.rotate(newWAL); err != nil {
			s.c.ioErrors.Add(1)
			r.close()
			os.Remove(filepath.Join(s.dir, sstName(num)))
			return
		}
		oldWALs := s.walNums
		s.walNums = append(append([]uint64(nil), oldWALs...), newWAL)
		s.hook("flush.rotate")
		prevWal, prevSSTs := s.man.wal, s.man.ssts
		s.man.wal = newWAL
		s.man.ssts = append([]uint64{num}, s.man.ssts...)
		if err := s.man.store(s.dir); err != nil {
			s.c.ioErrors.Add(1)
			s.man.wal, s.man.ssts = prevWal, prevSSTs
			r.close()
			os.Remove(filepath.Join(s.dir, sstName(num)))
			return // appends continue on the new WAL; old ones stay until a later flush lands
		}
		s.hook("flush.manifest")
		for _, n := range oldWALs {
			os.Remove(filepath.Join(s.dir, walName(n)))
		}
		s.walNums = []uint64{newWAL}
		s.hook("flush.done")
	}

	s.runs = append([]*run{r}, s.runs...)
	s.mem = newMemtable(s.mem.len()) // fresh chunks: r may keep views into the old ones
	s.c.flushes.Add(1)
	s.maybeCompactLocked()
}

// waitCompactionLocked returns once no compaction is in flight.
func (s *Store) waitCompactionLocked() {
	for s.compacting {
		s.idle.Wait()
	}
}

// Close shuts the store down cleanly: flush the memtable (which drains the
// WAL first), let compaction finish and publish, fsync and close the log,
// and release every SST file handle. After Close all operations fail with
// ErrClosed. In-memory stores have nothing to release: Close only waits out
// the compaction.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.dir == "" {
		s.waitCompactionLocked()
		return nil
	}
	s.flushLocked(0)
	// The store stays open until compaction is idle, so the merge the flush
	// may have started publishes instead of being thrown away.
	s.waitCompactionLocked()
	if s.closed {
		return nil // a concurrent Close or Crash finished while this one waited
	}
	s.closed = true
	err := s.wal.close()
	s.releaseRuns()
	return err
}

// Crash abandons the store the way SIGKILL would: nothing is flushed or
// synced, in-flight commit waiters fail with ErrClosed, buffered WAL records
// are dropped, and file handles close. On-disk state is whatever earlier
// fsyncs made durable — exactly what a fresh Open must recover from. The
// crash-injection tests drive this; production code should use Close.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.wal != nil {
		s.wal.crash()
	}
	s.waitCompactionLocked() // it finds the store closed and discards its output
	s.releaseRuns()
}

// Runs reports the current number of immutable runs.
func (s *Store) Runs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// MemBytes reports the memtable payload size.
func (s *Store) MemBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mem.bytes
}

// AppendLiveKeys appends every live key to dst in ascending byte order —
// the snapshot membership streaming paginates over (linear scan; cold path).
func (s *Store) AppendLiveKeys(dst []string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.eachLiveLocked(func(k string) { dst = append(dst, k) })
	return dst
}

// eachLiveLocked calls fn with every live key in ascending order: the
// memtable and the runs through the merge, newest first.
func (s *Store) eachLiveLocked(fn func(key string)) {
	m := newMerger(append([]*run{s.mem.run()}, s.runs...))
	for r, i, ok := m.next(); ok; r, i, ok = m.next() {
		if !r.tombstone(i) {
			fn(r.keys[i])
		}
	}
}

// Has reports whether key currently exists, without copying its value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	if _, del, ok := s.mem.get(key); ok {
		return !del
	}
	for _, r := range s.runs {
		if !r.bloom.MayContain(key) {
			continue
		}
		if i := r.find(key); i >= 0 {
			return !r.tombstone(i)
		}
	}
	return false
}

// Len reports the number of live keys (linear scan; diagnostics only).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	s.eachLiveLocked(func(string) { n++ })
	return n
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Gets:          s.c.gets.Load(),
		Puts:          s.c.puts.Load(),
		Deletes:       s.c.deletes.Load(),
		Flushes:       s.c.flushes.Load(),
		Compactions:   s.c.compactions.Load(),
		RunsConsulted: s.c.runsConsulted.Load(),
		BloomSkips:    s.c.bloomSkips.Load(),
		IOErrors:      s.c.ioErrors.Load(),
	}
	s.mu.RLock()
	if s.wal != nil {
		st.WALRecords = s.wal.appds.Load()
		st.GroupCommits = s.wal.syncs.Load()
	}
	s.mu.RUnlock()
	return st
}
