package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// The write-ahead log is a sequence of self-delimiting records:
//
//	[payload len u32][crc32c(payload) u32][payload]
//	payload = [op u8][klen u32][key bytes]            op = walDel
//	        | [op u8][klen u32][key][vlen u32][value] op = walPut | walDelHint
//
// Everything is little-endian. A record is valid only when its CRC matches,
// so recovery can detect a torn tail (a crash mid-write) and truncate it.
// Records after a torn record were never acked — a write does not return
// until the group fsync covering its batch succeeds — so truncation never
// drops an acknowledged write.
//
// walDelHint never appears in a store WAL: it exists for sidecar logs (the
// kvstore hint queues) whose tombstone records must carry a value section —
// the coordinator's version stamp rides in the payload, and a recovered
// delete hint without its version would replay unguarded.

const (
	walPut     byte = 1
	walDel     byte = 2
	walDelHint byte = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation against a store that was closed (or torn
// down by a simulated crash) before the operation could become durable.
var ErrClosed = errors.New("lsm: store closed")

func walName(n uint64) string { return fmt.Sprintf("%06d.wal", n) }
func sstName(n uint64) string { return fmt.Sprintf("%06d.sst", n) }

// syncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// wal is the write-ahead log with group commit: appenders encode records
// into a shared buffer under mu and get back the open commit group's
// sequence number; a single committer goroutine repeatedly steals the buffer,
// writes and fsyncs it as one unit, and publishes the group's outcome.
// Concurrent writers therefore share one fsync instead of paying ~130µs
// each.
//
// A commit group is nothing but a sequence number, so opening one allocates
// nothing. Groups commit in order, and the committer publishes two marks:
// written, the last group written (and fsynced, under strict sync), and
// failed, the first group that failed. The error that failed it is sticky
// (werr), so every later group fails too and a waiter's outcome is decided
// by where its group falls: at or below written it is durable, at or past
// failed it gets werr. Waiters block on cond, on mu, which the committer
// broadcasts after each group; crash fails every group not yet taken by the
// committer with ErrClosed.
//
// Sync policy, from strictest to loosest:
//   - strict (syncEvery == 0): every commit group fsyncs before its waiters
//     release. Acked writes survive power loss.
//   - periodic (syncEvery > 0): waiters release after write(2); a background
//     loop fsyncs at most every syncEvery. Acked writes survive process
//     death (the page cache outlives SIGKILL); power loss can take back at
//     most the last syncEvery window. This is Cassandra's default
//     commitlog_sync: periodic trade.
type wal struct {
	dir       string
	syncEvery time.Duration

	mu      sync.Mutex
	cond    sync.Cond // on mu: broadcast when written or failed moves
	f       *os.File
	num     uint64
	buf     []byte // encoded records not yet handed to the committer
	spare   []byte // recycled second buffer (ping-pong with buf)
	open    bool   // group next has records or a sync barrier waiting on it
	next    uint64 // the open group's sequence number; groups start at 1
	written uint64 // last group written
	failed  uint64 // first group that failed; 0 while none has
	werr    error  // sticky I/O error: the log is wedged, fail all appends
	closed  bool

	kick  chan struct{} // cap 1: committer work signal
	quit  chan struct{}
	exit  chan struct{} // closed when the committer goroutine returns
	texit chan struct{} // closed when the periodic sync goroutine returns

	// ioMu serializes file writes (and strict-mode fsyncs) against rotation
	// swapping the file. The periodic fsync runs outside it under syncMu,
	// which rotation and crash also take, so neither closes a file while an
	// fsync of it is in flight.
	ioMu   sync.Mutex
	dirty  bool // bytes written since the last fsync began (guarded by ioMu)
	syncMu sync.Mutex

	syncHook func() // tests only: called by fsyncNow just before it fsyncs

	syncs atomic.Uint64 // fsync count (group commits)
	appds atomic.Uint64 // records appended
}

// openWAL opens (creating if needed) WAL file num for appending and starts
// the committer (plus the background sync loop when periodic).
func openWAL(dir string, num uint64, syncEvery time.Duration) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName(num)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{
		dir:       dir,
		syncEvery: syncEvery,
		f:         f,
		num:       num,
		next:      1,
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		exit:      make(chan struct{}),
		texit:     make(chan struct{}),
	}
	w.cond.L = &w.mu
	go w.committer()
	if w.periodic() {
		go w.syncLoop()
	} else {
		close(w.texit)
	}
	return w, nil
}

func (w *wal) periodic() bool { return w.syncEvery > 0 }

// appendWALRecord encodes one record onto b.
func appendWALRecord(b []byte, op byte, key string, val []byte) []byte {
	plen := 1 + 4 + len(key)
	if op != walDel {
		plen += 4 + len(val)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(plen))
	crcAt := len(b)
	b = append(b, 0, 0, 0, 0) // CRC placeholder
	b = append(b, op)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	if op != walDel {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
		b = append(b, val...)
	}
	crc := crc32.Checksum(b[crcAt+4:], crcTable)
	binary.LittleEndian.PutUint32(b[crcAt:], crc)
	return b
}

// A batch is logged in three steps: lockAppend takes the log (refusing a
// closed or wedged one), appendLocked encodes each record into the open
// commit group, and unlockAppend releases the log and returns the group's
// sequence number — one fsync for the batch regardless of size. The caller
// waits on it with wait after releasing the store lock.
func (w *wal) lockAppend() error {
	w.mu.Lock()
	err := w.werr
	if w.closed {
		err = ErrClosed
	}
	if err != nil {
		w.mu.Unlock()
	}
	return err
}

// appendLocked encodes one record; a nil value logs a tombstone.
func (w *wal) appendLocked(key string, val []byte) {
	op := walPut
	if val == nil {
		op = walDel
	}
	w.buf = appendWALRecord(w.buf, op, key, val)
}

// unlockAppend closes a lockAppend of n records and returns the sequence
// number of the group holding them, or 0 when n is 0.
func (w *wal) unlockAppend(n int) uint64 {
	if n == 0 {
		w.mu.Unlock()
		return 0
	}
	w.appds.Add(uint64(n))
	w.open = true
	seq := w.next
	w.mu.Unlock()
	w.kickCommitter()
	return seq
}

func (w *wal) kickCommitter() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// wait blocks until group seq is written (nil) or has failed (the sticky
// error). Group 0 is no group: nothing to wait for.
func (w *wal) wait(seq uint64) error {
	if seq == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.written < seq && (w.failed == 0 || seq < w.failed) {
		w.cond.Wait()
	}
	if w.written >= seq {
		return nil
	}
	return w.werr
}

func (w *wal) committer() {
	defer close(w.exit)
	for {
		select {
		case <-w.kick:
			w.commitOnce()
		case <-w.quit:
			w.commitOnce() // final drain
			return
		}
	}
}

// commitOnce steals the current buffer and group, writes and fsyncs the
// bytes, and publishes the group's outcome to every waiter.
func (w *wal) commitOnce() {
	w.mu.Lock()
	if !w.open {
		w.mu.Unlock()
		return
	}
	buf, seq, f := w.buf, w.next, w.f
	w.buf, w.spare = w.spare[:0:cap(w.spare)], nil
	w.open = false
	w.next++
	err := w.werr
	w.mu.Unlock()

	if err == nil {
		w.ioMu.Lock()
		if len(buf) > 0 {
			_, err = f.Write(buf)
			w.dirty = w.dirty || err == nil
		}
		if err == nil && !w.periodic() {
			//lint:allow lockscope ioMu is the WAL's dedicated I/O lock; fsync under it is the group-commit design — the hot-path mu was released above
			err = f.Sync()
			w.dirty = err != nil
			w.syncs.Add(1)
		}
		w.ioMu.Unlock()
	}

	w.mu.Lock()
	if cap(buf) > cap(w.spare) {
		w.spare = buf[:0]
	}
	if err == nil {
		w.written = seq
	} else {
		if w.werr == nil {
			w.werr = err
		}
		if w.failed == 0 || seq < w.failed {
			w.failed = seq
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// syncLoop is the periodic-mode background fsync: at most one fsync per
// syncEvery, and only when bytes landed since the previous one.
func (w *wal) syncLoop() {
	defer close(w.texit)
	t := time.NewTicker(w.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := w.fsyncNow(); err != nil {
				w.mu.Lock()
				if w.werr == nil {
					w.werr = err
				}
				w.mu.Unlock()
			}
		case <-w.quit:
			return
		}
	}
}

// fsyncNow flushes the file if anything was written since the last fsync.
// It takes the file and clears dirty under ioMu, then fsyncs outside it, so
// commit groups keep writing meanwhile; a write that lands during the fsync
// sets dirty again for the next one.
func (w *wal) fsyncNow() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.ioMu.Lock()
	f, dirty := w.f, w.dirty
	w.dirty = false
	w.ioMu.Unlock()
	if !dirty {
		return nil
	}
	if w.syncHook != nil {
		w.syncHook()
	}
	//lint:allow lockscope syncMu only keeps rotate and crash from closing the file mid-fsync; commit groups never take it
	err := f.Sync()
	if err != nil {
		w.ioMu.Lock()
		w.dirty = true
		w.ioMu.Unlock()
		return err
	}
	w.syncs.Add(1)
	return nil
}

// sync blocks until every record appended so far is durable on disk — a real
// fsync barrier regardless of sync policy (flush uses it before cutting the
// WAL over, so the SST+manifest can safely supersede the old log). It always
// opens (or joins) a group and waits: the committer processes groups in
// order, so waiting on the newest group implies all earlier ones completed.
func (w *wal) sync() error {
	if err := w.lockAppend(); err != nil {
		return err
	}
	w.open = true
	seq := w.next
	w.mu.Unlock()
	w.kickCommitter()
	if err := w.wait(seq); err != nil {
		return err
	}
	if w.periodic() {
		return w.fsyncNow()
	}
	return nil
}

// rotate switches appends to a fresh WAL file. The caller must have drained
// the log with sync() and hold the store lock so no append races the switch.
func (w *wal) rotate(num uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, walName(num)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.syncMu.Lock() // an fsync in flight finishes before the old file closes
	defer w.syncMu.Unlock()
	w.mu.Lock()
	w.ioMu.Lock()
	old := w.f
	w.f, w.num = f, num
	w.dirty = false // the old file was drained with sync() before rotating
	w.ioMu.Unlock()
	w.mu.Unlock()
	return old.Close()
}

// close drains outstanding records, fsyncs, and closes the file.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit) // committer drains buf+pending, then exits
	<-w.exit
	<-w.texit
	err := w.werr
	if serr := w.f.Sync(); err == nil {
		err = serr // final fsync even in periodic mode: clean exits keep the tail
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// crash abandons the log without syncing: every commit group the committer
// has not taken fails with ErrClosed so no writer blocks forever, buffered
// records are dropped, and the file is closed. A group already being
// written keeps its outcome. This is the in-process stand-in for SIGKILL.
func (w *wal) crash() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	if w.werr == nil {
		w.werr = ErrClosed
	}
	if w.failed == 0 {
		w.failed = w.next
	}
	w.open = false
	w.buf = w.buf[:0]
	w.cond.Broadcast()
	w.mu.Unlock()
	close(w.quit)
	<-w.exit
	<-w.texit
	w.syncMu.Lock() // a flush's fsync (sync) may still be in flight
	w.ioMu.Lock()
	w.f.Close()
	w.ioMu.Unlock()
	w.syncMu.Unlock()
}

// replayWAL reads records from path in order, calling apply for each valid
// one, and returns the length of the valid prefix. key and val are views
// into the file's bytes, valid only during the call: apply copies what it
// keeps (the memtable copies every record). Parsing stops — without error —
// at the first torn or corrupt record: bytes past it were never acknowledged
// (ack happens only after fsync), so dropping them is safe.
func replayWAL(path string, apply func(op byte, key string, val []byte)) (validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for {
		if len(data)-off < 8 {
			return int64(off), nil
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 5 || len(data)-off-8 < plen {
			return int64(off), nil
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return int64(off), nil
		}
		op := payload[0]
		klen := int(binary.LittleEndian.Uint32(payload[1:]))
		if 5+klen > len(payload) {
			return int64(off), nil
		}
		key := unsafe.String(unsafe.SliceData(payload[5:]), klen)
		switch op {
		case walPut, walDelHint:
			if 5+klen+4 > len(payload) {
				return int64(off), nil
			}
			vlen := int(binary.LittleEndian.Uint32(payload[5+klen:]))
			if 9+klen+vlen != len(payload) {
				return int64(off), nil
			}
			apply(op, key, payload[9+klen:9+klen+vlen:9+klen+vlen])
		case walDel:
			if 5+klen != len(payload) {
				return int64(off), nil
			}
			apply(walDel, key, nil)
		default:
			return int64(off), nil
		}
		off += 8 + plen
	}
}

// truncateWAL cuts path down to validLen, discarding a torn tail so future
// appends cannot interleave with garbage.
func truncateWAL(path string, validLen int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() == validLen {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(validLen)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
