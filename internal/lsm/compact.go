package lsm

import (
	"os"
	"path/filepath"
)

// Compaction is a streaming merge that runs outside the store lock.
//
// A flush that leaves more than MaxRuns runs, with no compaction in flight,
// starts one: under s.mu it snapshots the runs (every run, so the oldest is
// an input and tombstones can drop) and allocates the output file number;
// a background goroutine then merges the snapshot into one run, writing and
// fsyncing the output SST without the lock, while reads keep consulting the
// inputs and flushes keep prepending runs. The result is published in one
// short critical section: a manifest edit naming the runs flushed meanwhile
// plus the output, the swap of s.runs, and the close of the inputs, whose
// files are removed after unlock. At most one compaction per store runs at a
// time, and one that published re-checks whether another is due; one that
// failed leaves its inputs live for the next flush to retry.
//
// Backpressure: a flush that would stack runs beyond 2×MaxRuns waits for the
// compaction in flight, which bounds read amplification and retained caches.
// Close waits for compaction to go idle before closing the store, so the
// merge publishes; Crash closes first and then waits, and a merge that finds
// the store closed discards its output.

// merger is the store's one newest-wins rule: it walks runs (newest first)
// in ascending key order with one cursor per run and yields every key once,
// from the newest run holding it. A linear min-scan picks the next key —
// merges are at most 2×MaxRuns+1 runs wide.
type merger struct {
	runs []*run
	pos  []int
}

func newMerger(runs []*run) merger {
	return merger{runs: runs, pos: make([]int, len(runs))}
}

// next returns the run and index of the next key's newest entry, or ok=false
// once every run is exhausted.
func (m *merger) next() (r *run, i int, ok bool) {
	best := -1
	var key string
	for j, r := range m.runs {
		// Strictly less: among equal keys the first (newest) run wins.
		if p := m.pos[j]; p < len(r.keys) && (best < 0 || r.keys[p] < key) {
			best, key = j, r.keys[p]
		}
	}
	if best < 0 {
		return nil, 0, false
	}
	r, i = m.runs[best], m.pos[best]
	for j := best; j < len(m.runs); j++ { // runs newer than best are past key
		if p := m.pos[j]; p < len(m.runs[j].keys) && m.runs[j].keys[p] == key {
			m.pos[j]++
		}
	}
	return r, i, true
}

// Compact merges every run into one, dropping shadowed versions and
// tombstones. It waits out a compaction in flight, then merges in the
// calling goroutine — still outside the lock — and returns once the result
// is published and the inputs are deleted.
func (s *Store) Compact() {
	s.mu.Lock()
	s.waitCompactionLocked()
	if s.closed || len(s.runs) <= 1 {
		s.mu.Unlock()
		return
	}
	in, num := s.beginCompactionLocked()
	s.mu.Unlock()
	s.compact(in, num)
}

// maybeCompactLocked starts a background compaction when runs exceed
// MaxRuns and none is in flight.
func (s *Store) maybeCompactLocked() {
	if s.compacting || s.closed || len(s.runs) <= s.opts.MaxRuns {
		return
	}
	in, num := s.beginCompactionLocked()
	go s.compact(in, num)
}

// beginCompactionLocked marks a compaction in flight and hands it the run
// snapshot and its output file number.
func (s *Store) beginCompactionLocked() (in []*run, num uint64) {
	s.compacting = true
	if s.dir != "" {
		num = s.allocNum()
	}
	return s.runs, num
}

// compact merges the snapshot in, publishes the result, and deletes the
// input files. The caller marked the compaction in flight.
func (s *Store) compact(in []*run, num uint64) {
	out, err := s.merge(in, num)
	if err == nil {
		s.hook("compact.sst")
	}
	s.mu.Lock()
	ok := s.publishLocked(in, out, err)
	s.compacting = false
	s.idle.Broadcast()
	if ok {
		// A failed merge is not restarted here: the next flush retries it,
		// so a persistent I/O error costs one attempt per flush, not a loop
		// that keeps compacting set and the waiting flushes asleep.
		s.maybeCompactLocked()
	}
	s.mu.Unlock()
	if ok && s.dir != "" {
		for _, r := range in {
			os.Remove(filepath.Join(s.dir, sstName(r.num)))
		}
		s.hook("compact.done")
	}
}

// merge streams the newest-wins merge of in into one new run without the
// lock: no map, no sort, no per-key allocation. Output keys are copied into
// the output's key arena, values are views into the inputs (a run read
// through its file shares one buffer, which the durable writer copies out
// before the next read), and tombstones drop because nothing older than the
// inputs exists. An in-memory output would keep those views, pinning every
// memtable generation a surviving value was carved from, so it copies the
// survivors into one arena sized to them instead and lets the inputs'
// memory go.
func (s *Store) merge(in []*run, num uint64) (*run, error) {
	n, bytes, kbytes := 0, 0, 0
	for _, r := range in {
		n += len(r.keys)
		bytes += r.bytes
		kbytes = max(kbytes, r.kbytes)
	}
	w, err := newSSTWriter(s.dir, num, n, bytes, kbytes)
	if err != nil {
		return nil, err
	}
	var arena []byte
	if s.dir == "" {
		arena = make([]byte, 0, liveValueBytes(in))
	}
	var buf, v []byte
	m := newMerger(in)
	for r, i, more := m.next(); more; r, i, more = m.next() {
		if r.tombstone(i) {
			continue
		}
		var ok bool
		if v, buf, ok = r.view(i, buf); !ok {
			w.abort()
			return nil, ErrUnreadable
		}
		if s.dir == "" {
			at := len(arena)
			arena = append(arena, v...)
			v = arena[at:len(arena):len(arena)] // non-nil even when empty: nil is a tombstone
		}
		w.add(r.keys[i], v)
	}
	return w.finish()
}

// liveValueBytes is the value payload a merge of the in-memory runs in
// keeps: the newest version of each key, tombstones counting zero.
func liveValueBytes(in []*run) int {
	n := 0
	m := newMerger(in)
	for r, i, more := m.next(); more; r, i, more = m.next() {
		n += len(r.vals[i])
	}
	return n
}

// publishLocked installs a finished merge. The runs flushed while it ran
// sit in front of the snapshot in s.runs; the manifest edit lists them, then
// the output. It reports whether the output replaced the inputs; a failed
// merge leaves the inputs live, and an output that cannot be installed —
// the store closed meanwhile, or the manifest edit failed — is discarded.
func (s *Store) publishLocked(in []*run, out *run, err error) bool {
	if err != nil {
		s.c.ioErrors.Add(1)
		return false
	}
	if s.closed {
		s.discardLocked(out)
		return false
	}
	fresh := s.runs[:len(s.runs)-len(in)]
	if s.dir != "" {
		prev := s.man.ssts
		ssts := make([]uint64, 0, len(fresh)+1)
		for _, r := range fresh {
			ssts = append(ssts, r.num)
		}
		s.man.ssts = append(ssts, out.num)
		if err := s.man.store(s.dir); err != nil {
			s.c.ioErrors.Add(1)
			s.man.ssts = prev
			s.discardLocked(out)
			return false
		}
		s.hook("compact.manifest")
	}
	for _, r := range in {
		r.close()
	}
	s.runs = append(fresh[:len(fresh):len(fresh)], out)
	s.c.compactions.Add(1)
	return true
}

// discardLocked drops a compaction output that was never installed.
func (s *Store) discardLocked(out *run) {
	out.close()
	if s.dir != "" {
		os.Remove(filepath.Join(s.dir, sstName(out.num)))
	}
}
