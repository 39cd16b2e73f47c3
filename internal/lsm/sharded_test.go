package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpenSharded(tb testing.TB, opts Options, n int) *Sharded {
	tb.Helper()
	s, err := OpenSharded(opts, n)
	if err != nil {
		tb.Fatalf("OpenSharded: %v", err)
	}
	return s
}

// shardedKeys returns count keys with every shard of an n-shard store
// represented (the FNV routing is uniform enough that a few dozen keys cover
// eight shards; the test fails loudly if the spread ever degenerates).
func shardedKeys(tb testing.TB, s *Sharded, count int) []string {
	tb.Helper()
	keys := make([]string, count)
	hit := make([]bool, s.ShardCount())
	for i := range keys {
		keys[i] = fmt.Sprintf("shard-key-%03d", i)
		hit[s.ShardFor(keys[i])] = true
	}
	for sh, ok := range hit {
		if !ok {
			tb.Fatalf("no key of %d routed to shard %d/%d", count, sh, s.ShardCount())
		}
	}
	return keys
}

// Routing is a pure function of the key: the same key lands on the same
// shard on every call and on every store with the same shard count — the
// property that makes per-shard replica feedback coherent across nodes.
func TestShardedRoutingDeterministic(t *testing.T) {
	a := mustOpenSharded(t, Options{}, 8)
	b := mustOpenSharded(t, Options{}, 8)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("route-%03d", i)
		sh := a.ShardFor(key)
		if sh != b.ShardFor(key) || sh != a.ShardFor(key) {
			t.Fatalf("key %s routes unstably", key)
		}
		if err := a.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if got, ok := a.Shard(sh).Get(key); !ok || string(got) != key {
			t.Fatalf("key %s not on its routed shard %d", key, sh)
		}
		for other := 0; other < a.ShardCount(); other++ {
			if other != sh && a.Shard(other).Has(key) {
				t.Fatalf("key %s leaked onto shard %d (routed %d)", key, other, sh)
			}
		}
	}
}

// The on-disk SHARDS marker outlives the knob: a store created with 4 shards
// reopens with 4 no matter what the caller asks for, and a legacy unsharded
// directory opens as a single shard even when more are requested.
func TestShardedLayoutPersists(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSharded(t, Options{Dir: dir}, 4)
	keys := shardedKeys(t, s, 64)
	for _, k := range keys {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpenSharded(t, Options{Dir: dir}, 8) // knob says 8; disk says 4
	if got := s.ShardCount(); got != 4 {
		t.Fatalf("reopened with %d shards, want the persisted 4", got)
	}
	for _, k := range keys {
		if got, ok := s.Get(k); !ok || string(got) != "v-"+k {
			t.Fatalf("key %s = %q,%v after reopen", k, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := t.TempDir()
	u := mustOpen(t, Options{Dir: legacy})
	mustPut(t, u, "legacy-key", "legacy-val")
	u.Flush()
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpenSharded(t, Options{Dir: legacy}, 4)
	defer s.Close()
	if got := s.ShardCount(); got != 1 {
		t.Fatalf("legacy layout opened with %d shards, want 1", got)
	}
	if got, ok := s.Get("legacy-key"); !ok || string(got) != "legacy-val" {
		t.Fatalf("legacy key = %q,%v", got, ok)
	}
}

// ApplyMulti splits a heterogeneous batch by shard: versioned records keep
// their last-write-wins guard, version-0 records overwrite raw, and deletes
// travel with their own record's shard.
func TestShardedApplyMulti(t *testing.T) {
	s := mustOpenSharded(t, Options{Dir: t.TempDir()}, 4)
	defer s.Close()

	keys := shardedKeys(t, s, 48)
	vers := make([]uint64, len(keys))
	vals := make([][]byte, len(keys))
	for i := range keys {
		vers[i] = uint64(100 + i)
		vals[i] = []byte("m1-" + keys[i])
	}
	if err := s.ApplyMulti(keys, vers, vals, nil); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, v, ok := s.GetVersioned(nil, k)
		if !ok || string(got) != "m1-"+k || v != vers[i] {
			t.Fatalf("key %s = %q,ver=%d,%v after ApplyMulti, want %q at %d",
				k, got, v, ok, "m1-"+k, vers[i])
		}
	}

	// A second batch with stale versions, half of them deletes: the per-key
	// guard must reject every record without failing the batch.
	stale := make([]uint64, len(keys))
	staleVals := make([][]byte, len(keys))
	dels := make([]bool, len(keys))
	for i := range keys {
		stale[i] = 1 // below the installed 100+i
		staleVals[i] = []byte("stale-" + keys[i])
		dels[i] = i%2 == 0
	}
	if err := s.ApplyMulti(keys, stale, staleVals, dels); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got, v, ok := s.GetVersioned(nil, k); !ok || string(got) != "m1-"+k || v != vers[i] {
			t.Fatalf("stale batch clobbered key %s: %q,ver=%d,%v", k, got, v, ok)
		}
	}

	// The same delete pattern at a winning version: exactly the marked
	// records die, each on its own shard; their neighbours are rewritten.
	for i := range stale {
		stale[i] = 10_000
	}
	if err := s.ApplyMulti(keys, stale, staleVals, dels); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, v, ok := s.GetVersioned(nil, k)
		if dels[i] {
			if ok {
				t.Fatalf("deleted key %s still readable: %q", k, got)
			}
		} else if !ok || string(got) != "stale-"+k || v != 10_000 {
			t.Fatalf("key %s = %q,ver=%d,%v after winning batch", k, got, v, ok)
		}
	}

	// ver==0 records are raw overwrites: no guard, no version prefix.
	zeros := make([]uint64, len(keys))
	rawVals := make([][]byte, len(keys))
	for i := range keys {
		rawVals[i] = []byte("m2-" + keys[i])
	}
	if err := s.ApplyMulti(keys, zeros, rawVals, nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got, ok := s.Get(k); !ok || string(got) != "m2-"+k {
			t.Fatalf("key %s = %q,%v after raw batch", k, got, ok)
		}
	}
}

// copyTree snapshots src (including shard subdirectories) into a fresh
// directory — the sharded analogue of copyDir's power-cut disk image.
func copyTree(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return dst
}

// Crash-point injection across shard counts: snapshot the whole store root
// the instant one shard is mid-flush (SST written, WAL not yet rotated /
// manifest not yet updated / inputs not yet deleted) and prove the snapshot
// recovers every acked write — the other shards replay their own WALs in
// parallel, unaffected by the interrupted sibling.
func TestShardedCrashPointRecovery(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		for _, point := range []string{"flush.sst", "flush.manifest", "flush.done"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, point), func(t *testing.T) {
				dir := t.TempDir()
				var mu sync.Mutex
				var snap string
				opts := Options{Dir: dir, FlushBytes: 1 << 30, MaxRuns: 100}
				opts.hook = func(ev string) {
					mu.Lock()
					defer mu.Unlock()
					if ev == point && snap == "" {
						snap = copyTree(t, dir)
					}
				}
				s := mustOpenSharded(t, opts, shards)
				keys := shardedKeys(t, s, 64)
				for _, k := range keys {
					if err := s.Put(k, []byte("v1-"+k)); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Delete(keys[0]); err != nil {
					t.Fatal(err)
				}
				s.Flush() // fires the hook on whichever shard hits point first
				mu.Lock()
				got := snap
				mu.Unlock()
				if got == "" {
					t.Fatalf("hook %s never fired", point)
				}
				s.Crash()

				r := mustOpenSharded(t, Options{Dir: got}, shards)
				defer r.Close()
				if rc := r.ShardCount(); rc != shards {
					t.Fatalf("snapshot recovered %d shards, want %d", rc, shards)
				}
				for _, k := range keys[1:] {
					if v, ok := r.Get(k); !ok || string(v) != "v1-"+k {
						t.Fatalf("acked key %s = %q,%v after crash at %s", k, v, ok, point)
					}
				}
				if _, ok := r.Get(keys[0]); ok {
					t.Fatalf("deleted key %s resurrected after crash at %s", keys[0], point)
				}
				err := filepath.WalkDir(got, func(path string, d os.DirEntry, err error) error {
					if err == nil && strings.HasSuffix(d.Name(), ".tmp") {
						t.Errorf("orphan %s survived recovery", path)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Per-shard orphan cleanup is scoped to the shard's own directory: junk
// planted in one shard disappears on reopen, a sibling shard's real files
// survive untouched, and files in the store root (which no shard owns)
// are never reaped.
func TestShardedOrphanCleanupIsolation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenSharded(t, Options{Dir: dir}, 4)
	keys := shardedKeys(t, s, 64)
	for _, k := range keys {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	shard0 := filepath.Join(dir, "shard-0")
	shard1 := filepath.Join(dir, "shard-1")
	for _, orphan := range []string{"999999.sst", "999998.sst.tmp", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(shard0, orphan), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Root-level files belong to no shard; the sweeps must leave them alone.
	rootStray := filepath.Join(dir, "999999.sst")
	if err := os.WriteFile(rootStray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(shard1)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, ent := range before {
		if strings.HasSuffix(ent.Name(), ".sst") || ent.Name() == manifestName {
			keep = append(keep, ent.Name())
		}
	}
	if len(keep) == 0 {
		t.Fatal("shard-1 has no flushed files to guard")
	}

	s = mustOpenSharded(t, Options{Dir: dir}, 4)
	defer s.Close()
	for _, k := range keys {
		if got, ok := s.Get(k); !ok || string(got) != "v-"+k {
			t.Fatalf("key %s = %q,%v after orphan sweep", k, got, ok)
		}
	}
	for _, orphan := range []string{"999999.sst", "999998.sst.tmp", "MANIFEST.tmp"} {
		if _, err := os.Stat(filepath.Join(shard0, orphan)); !os.IsNotExist(err) {
			t.Errorf("orphan shard-0/%s survived reopen", orphan)
		}
	}
	if _, err := os.Stat(rootStray); err != nil {
		t.Errorf("root stray file reaped by a shard sweep: %v", err)
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(shard1, name)); err != nil {
			t.Errorf("sibling file shard-1/%s touched by shard-0 cleanup: %v", name, err)
		}
	}
}
