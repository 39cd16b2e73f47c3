package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/sim"
)

func mustOpen(tb testing.TB, opts Options) *Store {
	tb.Helper()
	s, err := Open(opts)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return s
}

func mustPut(tb testing.TB, s *Store, key, val string) {
	tb.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		tb.Fatalf("Put(%s): %v", key, err)
	}
}

func mustDelete(tb testing.TB, s *Store, key string) {
	tb.Helper()
	if err := s.Delete(key); err != nil {
		tb.Fatalf("Delete(%s): %v", key, err)
	}
}

// wantGet asserts the visible state of key: want == "" means absent.
func wantGet(tb testing.TB, s *Store, key, want string) {
	tb.Helper()
	v, ok := s.Get(key)
	if want == "" {
		if ok {
			tb.Fatalf("Get(%s) = %q, want absent", key, v)
		}
		return
	}
	if !ok || string(v) != want {
		tb.Fatalf("Get(%s) = %q,%v, want %q", key, v, ok, want)
	}
}

func TestDurableRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("sst-%02d", i), fmt.Sprintf("v%d", i))
	}
	s.Flush() // half the data via SSTs...
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("wal-%02d", i), fmt.Sprintf("w%d", i))
	}
	mustPut(t, s, "sst-00", "overwritten") // ...and a WAL overwrite of an SST key
	mustPut(t, s, "empty", "")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("late", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantGet(t, s, "sst-00", "overwritten")
	for i := 1; i < 50; i++ {
		wantGet(t, s, fmt.Sprintf("sst-%02d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 50; i++ {
		wantGet(t, s, fmt.Sprintf("wal-%02d", i), fmt.Sprintf("w%d", i))
	}
	if v, ok := s.Get("empty"); !ok || len(v) != 0 {
		t.Fatalf("empty value lost: %q,%v", v, ok)
	}
}

// Periodic sync acks after write(2): an in-process Crash (which closes the
// files but cannot touch the page cache, like SIGKILL) must still lose
// nothing acked, and the background loop must be issuing real fsyncs.
func TestPeriodicSyncSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SyncInterval: time.Millisecond})
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("p%03d", i), "v")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().GroupCommits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic sync loop never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	s.Crash()
	s2 := mustOpen(t, Options{Dir: dir, SyncInterval: time.Millisecond})
	defer s2.Close()
	for i := 0; i < 100; i++ {
		wantGet(t, s2, fmt.Sprintf("p%03d", i), "v")
	}
}

func TestCrashLosesNothingAcked(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, FlushBytes: 1 << 10})
	for i := 0; i < 200; i++ { // small FlushBytes: several flushes land mid-stream
		mustPut(t, s, fmt.Sprintf("k-%03d", i), fmt.Sprintf("v%d", i))
	}
	s.Crash()
	if err := s.Put("post", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Crash = %v, want ErrClosed", err)
	}

	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	for i := 0; i < 200; i++ {
		wantGet(t, s, fmt.Sprintf("k-%03d", i), fmt.Sprintf("v%d", i))
	}
}

// Tombstone durability: a delete acked only into the WAL at crash time must
// survive restart, and must not resurrect through flush or compaction after
// recovery.
func TestTombstoneSurvivesCrashAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	mustPut(t, s, "doomed", "v1")
	mustPut(t, s, "keeper", "v2")
	s.Flush() // both keys now live in an SST
	mustDelete(t, s, "doomed")
	s.Crash() // the tombstone exists only in the WAL

	s = mustOpen(t, Options{Dir: dir})
	wantGet(t, s, "doomed", "")
	wantGet(t, s, "keeper", "v2")
	s.Flush() // tombstone moves into an SST above the old value
	wantGet(t, s, "doomed", "")
	s.Compact()
	wantGet(t, s, "doomed", "")
	wantGet(t, s, "keeper", "v2")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantGet(t, s, "doomed", "")
	wantGet(t, s, "keeper", "v2")
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// A torn WAL tail (crash mid-append) is truncated on recovery; everything
// acked before it survives, and the log accepts appends afterwards.
func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	mustPut(t, s, "a", "1")
	mustPut(t, s, "b", "2")
	s.Crash()

	// Simulate a torn append: garbage at the tail of the newest WAL.
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal files: %v", err)
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, Options{Dir: dir})
	wantGet(t, s, "a", "1")
	wantGet(t, s, "b", "2")
	mustPut(t, s, "c", "3")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantGet(t, s, "a", "1")
	wantGet(t, s, "b", "2")
	wantGet(t, s, "c", "3")
}

// Startup hygiene: Open removes temp files and SSTs/WALs the manifest does
// not reference.
func TestOpenRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	mustPut(t, s, "k", "v")
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, orphan := range []string{"999999.sst", "999998.sst.tmp", "000001.wal", "MANIFEST.tmp"} {
		// 000001.wal sits below the post-flush watermark; the others are
		// never referenced at all.
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantGet(t, s, "k", "v")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		n := ent.Name()
		if strings.HasSuffix(n, ".tmp") || n == "999999.sst" || n == "000001.wal" {
			t.Fatalf("orphan %s survived Open", n)
		}
	}
}

// copyDir snapshots src into a fresh directory — the moral equivalent of the
// disk image at a power cut, taken from inside a flush/compaction hook.
func copyDir(tb testing.TB, src string) string {
	tb.Helper()
	dst := tb.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// Crash-point injection: capture the exact on-disk state between every pair
// of flush/compaction sub-steps (SST written, WAL rotated, manifest edited,
// inputs deleted) and prove each snapshot recovers with zero acked-write
// loss and no tombstone resurrection.
func TestCrashPointRecovery(t *testing.T) {
	points := []string{
		"flush.sst", "flush.rotate", "flush.manifest", "flush.done",
		"compact.sst", "compact.manifest", "compact.done",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			var snap string
			opts := Options{Dir: dir, FlushBytes: 1 << 30, MaxRuns: 100}
			opts.hook = func(ev string) {
				if ev == point && snap == "" {
					snap = copyDir(t, dir)
				}
			}
			s := mustOpen(t, opts)
			// Build history: two flushed generations with an overwrite and a
			// flushed tombstone, then a WAL-only generation.
			mustPut(t, s, "stable", "s1")
			mustPut(t, s, "rewritten", "old")
			mustPut(t, s, "gone", "dead")
			s.Flush() // may trigger the snapshot for flush.* points
			mustPut(t, s, "rewritten", "new")
			mustDelete(t, s, "gone")
			s.Flush()
			mustPut(t, s, "walonly", "w1")
			s.Flush()
			s.Compact() // triggers the snapshot for compact.* points
			if snap == "" {
				t.Fatalf("hook %s never fired", point)
			}
			s.Crash()

			// Recover the snapshot. Every write acked before the captured
			// step must be visible; the deleted key must stay dead.
			r := mustOpen(t, Options{Dir: snap})
			defer r.Close()
			wantGet(t, r, "stable", "s1")
			if strings.HasPrefix(point, "compact.") {
				// All three generations were acked before compaction began.
				wantGet(t, r, "rewritten", "new")
				wantGet(t, r, "walonly", "w1")
				wantGet(t, r, "gone", "")
			} else {
				// The snapshot came from the first flush: only generation
				// one was acked by then.
				wantGet(t, r, "rewritten", "old")
				wantGet(t, r, "gone", "dead")
			}
			// Recovery must have cleaned every orphan the interrupted step
			// left behind.
			ents, err := os.ReadDir(snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				if strings.HasSuffix(ent.Name(), ".tmp") {
					t.Fatalf("orphan %s survived recovery", ent.Name())
				}
			}
		})
	}
}

// A flush publishes while a compaction is merging: the compaction is held in
// its compact.sst hook (output SST written, not yet installed), a flush
// writes a new SST and edits the manifest around it, and then the store
// either crashes mid-merge or lets the merge publish first. Either way the
// reopened store holds every acked write, the deleted key stays dead, and
// the directory holds exactly the SSTs the manifest names.
func TestCrashPointFlushDuringCompaction(t *testing.T) {
	for _, publish := range []bool{false, true} {
		t.Run(fmt.Sprintf("publish=%v", publish), func(t *testing.T) {
			dir := t.TempDir()
			reached, release, published := make(chan struct{}), make(chan struct{}), make(chan struct{})
			var hold, done sync.Once
			opts := Options{Dir: dir, FlushBytes: 1 << 30, MaxRuns: 2}
			opts.hook = func(ev string) {
				switch ev {
				case "compact.sst":
					hold.Do(func() {
						close(reached)
						<-release
					})
				case "compact.done":
					done.Do(func() { close(published) })
				}
			}
			s := mustOpen(t, opts)
			want := map[string]string{}
			put := func(k, v string) {
				mustPut(t, s, k, v)
				want[k] = v
			}
			for gen := 0; gen < 3; gen++ { // the third flush exceeds MaxRuns
				put(fmt.Sprintf("gen%d", gen), "v")
				put("rewritten", fmt.Sprintf("g%d", gen))
				put("doomed", "alive")
				s.Flush()
			}
			<-reached
			put("during", "d")
			put("rewritten", "during")
			mustDelete(t, s, "doomed")
			want["doomed"] = ""
			s.Flush() // publishes a run and a manifest edit under the merge
			if got := s.Runs(); got != 4 {
				t.Fatalf("runs = %d with the merge held, want 4", got)
			}
			wantGet(t, s, "during", "d")
			if publish {
				close(release)
				<-published
				if got := s.Runs(); got != 2 {
					t.Fatalf("runs = %d after the merge published, want 2", got)
				}
				s.Crash()
			} else {
				crashed := make(chan struct{})
				go func() {
					s.Crash()
					close(crashed)
				}()
				// Crash marks the store closed, then waits for the merge.
				for closed := false; !closed; runtime.Gosched() {
					s.mu.RLock()
					closed = s.closed
					s.mu.RUnlock()
				}
				close(release) // the merge resumes into a crashed store
				<-crashed
				if got := s.Stats().Compactions; got != 0 {
					t.Fatalf("compactions = %d, want the held merge discarded", got)
				}
			}

			// A high MaxRuns keeps the reopened store from compacting while
			// the directory is inspected.
			r := mustOpen(t, Options{Dir: dir, FlushBytes: 1 << 30, MaxRuns: 100})
			defer r.Close()
			for k, v := range want {
				wantGet(t, r, k, v)
			}
			r.mu.RLock()
			live := append([]uint64(nil), r.man.ssts...)
			r.mu.RUnlock()
			ssts, err := filepath.Glob(filepath.Join(dir, "*.sst*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(ssts) != len(live) {
				t.Fatalf("directory holds %v, manifest names %v", ssts, live)
			}
			for _, n := range live {
				if _, err := os.Stat(filepath.Join(dir, sstName(n))); err != nil {
					t.Fatalf("manifest SST %d missing: %v", n, err)
				}
			}
		})
	}
}

// A compaction whose merge keeps failing — an input run that can no longer be
// read, the stand-in for EIO on the SST — must not restart itself in a loop.
// A failed merge leaves its inputs live and clears the in-flight mark, so the
// next flush retries it once; flushes that wait at 2×MaxRuns wake and go
// ahead, and Close returns.
func TestCompactionFailureDoesNotWedgeFlushes(t *testing.T) {
	const maxRuns = 2
	s := mustOpen(t, Options{Dir: t.TempDir(), SyncInterval: time.Hour, FlushBytes: 64, MaxRuns: maxRuns})
	val := strings.Repeat("v", 100) // every write crosses FlushBytes
	mustPut(t, s, "oldest", val)
	s.mu.Lock()
	if len(s.runs) != 1 {
		s.mu.Unlock()
		t.Fatalf("runs = %d after the first flush, want 1", len(s.runs))
	}
	broken := s.runs[0]
	broken.cache = nil // read through the file, which is gone
	broken.f.Close()
	s.mu.Unlock()

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			fn()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked with every compaction failing", what)
		}
	}
	for i := 0; i < 4*maxRuns; i++ {
		within(fmt.Sprintf("ApplyMulti %d", i), func() {
			if err := s.Put(fmt.Sprintf("k%d", i), []byte(val)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		})
	}
	var runs int
	within("waiting out the last retry", func() {
		s.mu.Lock()
		s.waitCompactionLocked()
		runs = len(s.runs)
		s.mu.Unlock()
	})
	if runs != 1+4*maxRuns {
		t.Fatalf("runs = %d, want every flushed run still live (%d)", runs, 1+4*maxRuns)
	}
	st := s.Stats()
	if st.Compactions != 0 {
		t.Fatalf("compactions = %d over an unreadable input", st.Compactions)
	}
	if st.IOErrors == 0 || st.IOErrors > st.Flushes {
		t.Fatalf("io errors = %d after %d flushes, want one failed merge per flush at most", st.IOErrors, st.Flushes)
	}
	within("Close", func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// A clean Close lets the compaction its final flush starts publish: the
// reopened store finds the merged run, not the inputs and a merge to redo.
func TestCloseKeepsCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SyncInterval: time.Hour, FlushBytes: 1 << 30, MaxRuns: 2})
	for gen := 0; gen < 2; gen++ {
		mustPut(t, s, fmt.Sprintf("gen%d", gen), "v")
		s.Flush()
	}
	mustPut(t, s, "last", "v") // Close's flush makes the third run
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, MaxRuns: 100})
	defer r.Close()
	if got := r.Runs(); got != 1 {
		t.Fatalf("runs = %d after reopen, want the compacted 1", got)
	}
	for _, k := range []string{"gen0", "gen1", "last"} {
		wantGet(t, r, k, "v")
	}
}

// One batch, one WAL group, one memtable generation: an acked batch whose
// cumulative size crosses FlushBytes at record k < n must survive a crash
// whole. A flush fired at record k would write records 0..k to an SST,
// retire the WAL that holds the entire batch, and leave records k+1..n in a
// fresh memtable with no log behind them — acked and gone.
func TestCrashPointMidBatch(t *testing.T) {
	type store interface {
		ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error
		Get(key string) ([]byte, bool)
		Flush()
		Stats() Stats
		Crash()
		Close() error
	}
	layouts := map[string]func(Options) (store, error){
		"store":     func(o Options) (store, error) { return Open(o) },
		"sharded=2": func(o Options) (store, error) { return OpenSharded(o, 2) },
		"sharded=4": func(o Options) (store, error) { return OpenSharded(o, 4) },
	}
	for name, open := range layouts {
		t.Run(name, func(t *testing.T) {
			// 2 KiB per node: a shard's share is crossed a few records into
			// its slice of the ~8 KiB batch below.
			opts := Options{Dir: t.TempDir(), FlushBytes: 2 << 10}
			s, err := open(opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 64
			keys := make([]string, 0, n+1)
			vers := make([]uint64, 0, n+1)
			vals := make([][]byte, 0, n+1)
			dels := make([]bool, 0, n+1)
			for i := 0; i < n; i++ {
				keys = append(keys, fmt.Sprintf("batch-%02d", i))
				vers = append(vers, 7)
				vals = append(vals, []byte(strings.Repeat("x", 100)+keys[i]))
				dels = append(dels, false)
			}
			// A victim flushed into an SST beforehand, deleted by the batch's
			// last record: a lost tombstone shows as a resurrection.
			if err := s.ApplyMulti([]string{"victim"}, []uint64{1}, [][]byte{[]byte("v")}, nil); err != nil {
				t.Fatal(err)
			}
			s.Flush()
			flushed := s.Stats().Flushes
			keys, vers, vals, dels = append(keys, "victim"), append(vers, 7), append(vals, nil), append(dels, true)

			if err := s.ApplyMulti(keys, vers, vals, dels); err != nil { // acked
				t.Fatal(err)
			}
			if s.Stats().Flushes == flushed {
				t.Fatal("batch never crossed the flush threshold: the test is not exercising the crash point")
			}
			s.Crash()

			r, err := open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i := 0; i < n; i++ {
				if v, ok := r.Get(keys[i]); !ok || string(v[VersionLen:]) != string(vals[i]) {
					t.Fatalf("acked record %d/%d (%s) = %q,%v after crash", i, n, keys[i], v, ok)
				}
			}
			if v, ok := r.Get("victim"); ok {
				t.Fatalf("acked delete lost: victim = %q after crash", v)
			}
		})
	}
}

// PutAll batches every record into one commit group: one fsync for the whole
// batch, not one per key.
func TestPutAllGroupCommits(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	defer s.Close()
	keys := make([]string, 100)
	vals := make([][]byte, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("b-%03d", i)
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := s.PutAll(keys, vals); err != nil {
		t.Fatalf("PutAll: %v", err)
	}
	st := s.Stats()
	if st.WALRecords != 100 {
		t.Fatalf("WALRecords = %d, want 100", st.WALRecords)
	}
	if st.GroupCommits >= 10 {
		t.Fatalf("GroupCommits = %d for one batch, batching broken", st.GroupCommits)
	}
	for i := range keys {
		wantGet(t, s, keys[i], string(vals[i]))
	}
}

// Durable model equivalence: random puts/deletes/flushes/compactions with
// crash-or-close restarts sprinkled in always agree with a map model,
// because every op waits for its fsync before the model applies it.
func TestDurableModelEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			rng := sim.RNG(seed, 77)
			opts := Options{Dir: dir, FlushBytes: 512, MaxRuns: 3}
			s := mustOpen(t, opts)
			model := map[string]string{}
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%02d", rng.IntN(30))
				switch rng.IntN(10) {
				case 0:
					mustDelete(t, s, key)
					delete(model, key)
				case 1:
					s.Flush()
				case 2:
					s.Compact()
				case 3, 4:
					// Restart: half clean, half hard.
					if rng.IntN(2) == 0 {
						if err := s.Close(); err != nil {
							t.Fatalf("Close: %v", err)
						}
					} else {
						s.Crash()
					}
					s = mustOpen(t, opts)
				default:
					val := fmt.Sprintf("v%d-%d", i, rng.IntN(1000))
					mustPut(t, s, key, val)
					model[key] = val
				}
			}
			defer s.Close()
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
			}
			for k, want := range model {
				wantGet(t, s, k, want)
			}
			for i := 0; i < 30; i++ {
				k := fmt.Sprintf("k%02d", i)
				if _, in := model[k]; !in {
					wantGet(t, s, k, "")
				}
			}
		})
	}
}

func BenchmarkDurablePut(b *testing.B) {
	s := mustOpen(b, Options{Dir: b.TempDir()})
	defer s.Close()
	val := make([]byte, 256)
	b.SetBytes(256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := s.Put(fmt.Sprintf("key-%d", i%4096), val); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
