package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// shardsFile persists a sharded store's layout in its root directory. The
// on-disk shard count always wins over the requested one: a node restarted
// with a different GOMAXPROCS (or an explicit knob change) must still route
// every key to the shard whose WAL and SSTs hold it.
const shardsFile = "SHARDS"

// Sharded is a store partitioned into independent sub-stores by key hash —
// the shard-per-core layout. Each shard owns its memtable, WAL (with its own
// committer goroutine and fsync groups), flush schedule, and SST set, so
// writes to unrelated keys never share a lock or an fsync group. Manifest
// and SST installs are per shard and therefore trivially sequenced: a shard
// never touches a sibling's files. A count of 1 reproduces the unsharded
// layout byte for byte (files in the root directory, no SHARDS marker).
type Sharded struct {
	shards []*Store
	n      uint32
}

// OpenSharded opens (or recovers) a store partitioned into n shards. With
// opts.Dir empty the shards are in-memory. With a directory, shard i lives
// under <dir>/shard-<i> and the root carries a SHARDS marker; a directory
// that already has a layout — a marker, or a legacy unsharded manifest/WAL —
// overrides n, so recovery always reads the layout that wrote the data.
// Shards recover in parallel, one goroutine per WAL.
func OpenSharded(opts Options, n int) (*Sharded, error) {
	if n < 1 {
		n = 1
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		if persisted, ok, err := readShardCount(opts.Dir); err != nil {
			return nil, err
		} else if ok {
			n = persisted
		} else if legacyLayout(opts.Dir) {
			n = 1
		} else if n > 1 {
			if err := writeShardCount(opts.Dir, n); err != nil {
				return nil, err
			}
		}
	}
	t := &Sharded{shards: make([]*Store, n), n: uint32(n)}
	if n == 1 {
		s, err := Open(opts)
		if err != nil {
			return nil, err
		}
		t.shards[0] = s
		return t, nil
	}
	sub := opts
	// The memtable budget is per node, not per shard: split it so a sharded
	// node flushes at the same total memory footprint as an unsharded one.
	if b := opts.withDefaults().FlushBytes / n; b > 0 {
		sub.FlushBytes = b
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range t.shards {
		so := sub
		if opts.Dir != "" {
			so.Dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d", i))
		}
		wg.Add(1)
		go func(i int, so Options) {
			defer wg.Done()
			t.shards[i], errs[i] = Open(so)
		}(i, so)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range t.shards {
				if s != nil {
					s.Close()
				}
			}
			return nil, err
		}
	}
	return t, nil
}

func readShardCount(dir string) (int, bool, error) {
	b, err := os.ReadFile(filepath.Join(dir, shardsFile))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 1 {
		return 0, false, fmt.Errorf("lsm: corrupt %s marker %q", shardsFile, b)
	}
	return n, true, nil
}

func writeShardCount(dir string, n int) error {
	// Marker install follows the manifest's crash discipline: write a temp
	// file, fsync it, rename into place, fsync the directory. A crash before
	// the rename leaves a .tmp the shards' own orphan sweep ignores (it is in
	// the root, not a shard dir) and the next open retries the install.
	tmp := filepath.Join(dir, shardsFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.WriteString(strconv.Itoa(n) + "\n"); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, shardsFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// legacyLayout reports whether dir holds a pre-sharding single-store layout
// (manifest or WAL files directly in the root).
func legacyLayout(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".wal") || strings.HasSuffix(ent.Name(), ".sst") {
			return true
		}
	}
	return false
}

// ShardCount reports the number of shards.
func (t *Sharded) ShardCount() int { return int(t.n) }

// ShardFor reports the shard index owning key — FNV-1a over the key, mod the
// shard count. Stable for the life of the directory (the count is persisted).
func (t *Sharded) ShardFor(key string) int {
	if t.n == 1 {
		return 0
	}
	return int(fnv1a(key) % t.n)
}

// fnv1a is the 32-bit FNV-1a hash, inlined so shard routing costs no
// interface or allocation.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// Shard exposes sub-store i (tests, diagnostics).
func (t *Sharded) Shard(i int) *Store { return t.shards[i] }

func (t *Sharded) shard(key string) *Store { return t.shards[t.ShardFor(key)] }

// Get delegates to the key's shard.
func (t *Sharded) Get(key string) ([]byte, bool) { return t.shard(key).Get(key) }

// GetAppend delegates to the key's shard.
func (t *Sharded) GetAppend(dst []byte, key string) ([]byte, bool) {
	return t.shard(key).GetAppend(dst, key)
}

// GetVersioned delegates to the key's shard.
func (t *Sharded) GetVersioned(dst []byte, key string) ([]byte, uint64, bool) {
	return t.shard(key).GetVersioned(dst, key)
}

// Version delegates to the key's shard.
func (t *Sharded) Version(key string) (uint64, bool) { return t.shard(key).Version(key) }

// Has delegates to the key's shard.
func (t *Sharded) Has(key string) bool { return t.shard(key).Has(key) }

// Put delegates to the key's shard.
func (t *Sharded) Put(key string, val []byte) error { return t.shard(key).Put(key, val) }

// Delete delegates to the key's shard.
func (t *Sharded) Delete(key string) error { return t.shard(key).Delete(key) }

// batchScratch is the reusable partition buffer behind a sharded batch
// write: the batch's records regrouped shard by shard. Pooled so the batch
// hot path allocates only when a batch outgrows every previous one.
type batchScratch struct {
	keys []string
	vers []uint64
	vals [][]byte
	dels []bool
	offs []int    // per-shard [start,end) offsets, len n+1
	seqs []uint64 // per-shard started commit group awaiting waitCommit; 0 = none
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// ApplyMulti is Store.ApplyMulti routed by shard: the batch is grouped by
// shard (a counting sort over the pooled scratch), each touched shard's
// sub-batch is applied as one WAL commit group of that shard, and every group
// is started before any is waited on — the batch waits for the slowest
// shard's fsync, not the sum. dels may be nil.
func (t *Sharded) ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error {
	if t.n == 1 {
		return t.shards[0].ApplyMulti(keys, vers, vals, dels)
	}
	if len(keys) == 0 {
		return nil
	}
	n := int(t.n)
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if cap(sc.offs) < n+1 {
		sc.offs = make([]int, n+1)
		sc.seqs = make([]uint64, n)
	}
	offs := sc.offs[:n+1]
	for i := range offs {
		offs[i] = 0
	}
	for _, k := range keys {
		offs[t.ShardFor(k)+1]++
	}
	for i := 1; i <= n; i++ {
		offs[i] += offs[i-1]
	}
	if cap(sc.keys) < len(keys) {
		sc.keys = make([]string, len(keys))
		sc.vers = make([]uint64, len(keys))
		sc.vals = make([][]byte, len(keys))
		sc.dels = make([]bool, len(keys))
	}
	skeys, svers, svals, sdels := sc.keys[:len(keys)], sc.vers[:len(keys)], sc.vals[:len(keys)], sc.dels[:len(keys)]
	for i, k := range keys {
		sh := t.ShardFor(k)
		at := offs[sh]
		offs[sh]++
		skeys[at], svers[at], svals[at], sdels[at] = k, vers[i], vals[i], dels != nil && dels[i]
	}
	// The fill pass advanced each cursor to its shard's end; offs[sh-1] is
	// now shard sh's start.
	seqs := sc.seqs[:n]
	var firstErr error
	for sh := 0; sh < n; sh++ {
		lo := 0
		if sh > 0 {
			lo = offs[sh-1]
		}
		hi := offs[sh]
		if lo == hi {
			continue
		}
		var err error
		if seqs[sh], err = t.shards[sh].apply(skeys[lo:hi], svers[lo:hi], svals[lo:hi], sdels[lo:hi]); err != nil {
			firstErr = err
			break
		}
	}
	// Wait for every started commit group even after an error: acked state
	// must be settled before the caller sees the verdict.
	for sh, seq := range seqs {
		if err := t.shards[sh].waitCommit(seq); err != nil && firstErr == nil {
			firstErr = err
		}
		seqs[sh] = 0
	}
	// Scratch views hold caller data; drop the references before pooling.
	for i := range skeys {
		skeys[i] = ""
		svals[i] = nil
	}
	return firstErr
}

// AppendLiveKeys appends every shard's live keys to dst in ascending byte
// order.
func (t *Sharded) AppendLiveKeys(dst []string) []string {
	at := len(dst)
	for _, s := range t.shards {
		dst = s.AppendLiveKeys(dst)
	}
	if t.n > 1 {
		slices.Sort(dst[at:]) // each shard's keys arrive sorted, the union does not
	}
	return dst
}

// Flush flushes every shard's memtable.
func (t *Sharded) Flush() {
	for _, s := range t.shards {
		s.Flush()
	}
}

// Compact compacts every shard.
func (t *Sharded) Compact() {
	for _, s := range t.shards {
		s.Compact()
	}
}

// Close closes every shard (flush + final fsync each).
func (t *Sharded) Close() error {
	var first error
	for _, s := range t.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Crash tears every shard down without flushing — the SIGKILL analogue.
func (t *Sharded) Crash() {
	for _, s := range t.shards {
		s.Crash()
	}
}

// Len reports the total number of live keys across shards.
func (t *Sharded) Len() int {
	total := 0
	for _, s := range t.shards {
		total += s.Len()
	}
	return total
}

// Runs reports the total run count across shards.
func (t *Sharded) Runs() int {
	total := 0
	for _, s := range t.shards {
		total += s.Runs()
	}
	return total
}

// MemBytes reports the total memtable payload across shards.
func (t *Sharded) MemBytes() int {
	total := 0
	for _, s := range t.shards {
		total += s.MemBytes()
	}
	return total
}

// Stats aggregates every shard's counters.
func (t *Sharded) Stats() Stats {
	var out Stats
	for _, s := range t.shards {
		st := s.Stats()
		out.Gets += st.Gets
		out.Puts += st.Puts
		out.Deletes += st.Deletes
		out.Flushes += st.Flushes
		out.Compactions += st.Compactions
		out.RunsConsulted += st.RunsConsulted
		out.BloomSkips += st.BloomSkips
		out.WALRecords += st.WALRecords
		out.GroupCommits += st.GroupCommits
		out.IOErrors += st.IOErrors
	}
	return out
}
