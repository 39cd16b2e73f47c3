package lsm

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"c3/internal/sim"
)

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q,%v", v, ok)
	}
	if v, ok := s.Get("b"); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q,%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) found something")
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Put("k", []byte("old"))
	s.Flush()
	s.Put("k", []byte("new"))
	if v, _ := s.Get("k"); string(v) != "new" {
		t.Fatalf("memtable should shadow run: %q", v)
	}
	s.Flush()
	if v, _ := s.Get("k"); string(v) != "new" {
		t.Fatalf("newer run should shadow older: %q", v)
	}
}

func TestDeleteTombstoneAcrossFlush(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Put("k", []byte("v"))
	s.Flush()
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key visible via memtable tombstone")
	}
	s.Flush()
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key visible via run tombstone")
	}
	s.Compact()
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestAutoFlushOnThreshold(t *testing.T) {
	s := mustOpen(t, Options{FlushBytes: 64})
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("key-%02d", i), []byte("0123456789"))
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("no automatic flush despite exceeding threshold")
	}
	if s.Runs() == 0 {
		t.Fatal("no runs after flush")
	}
	// All data still readable.
	for i := 0; i < 20; i++ {
		if _, ok := s.Get(fmt.Sprintf("key-%02d", i)); !ok {
			t.Fatalf("key-%02d lost after flush", i)
		}
	}
}

// Compaction runs in the background, so the bound is the backpressure rule:
// flushes may stack runs while a merge is in flight, but never beyond
// 2×MaxRuns — checked after every flush and by a concurrent sampler — and
// an explicit Compact leaves at most MaxRuns+1.
func TestAutoCompactionBoundsRuns(t *testing.T) {
	const maxRuns, flushes = 3, 40
	s := mustOpen(t, Options{FlushBytes: 1 << 30, MaxRuns: maxRuns})
	done := make(chan struct{})
	worst := make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-done:
				worst <- most
				return
			default:
				most = max(most, s.Runs())
			}
		}
	}()
	for f := 0; f < flushes; f++ {
		for i := 0; i < 50; i++ {
			s.Put(fmt.Sprintf("k%d-%d", f, i), []byte("v"))
		}
		s.Flush()
		if got := s.Runs(); got > 2*maxRuns {
			t.Fatalf("flush %d: runs = %d, want <= 2×MaxRuns = %d", f, got, 2*maxRuns)
		}
	}
	close(done)
	if got := <-worst; got > 2*maxRuns {
		t.Fatalf("sampled runs = %d, want <= 2×MaxRuns = %d", got, 2*maxRuns)
	}
	s.Compact()
	if got := s.Runs(); got > maxRuns+1 {
		t.Fatalf("runs after Compact = %d, want <= MaxRuns+1 = %d", got, maxRuns+1)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("no compactions despite run pressure")
	}
	for f := 0; f < flushes; f++ {
		for i := 0; i < 50; i++ {
			if v, ok := s.Get(fmt.Sprintf("k%d-%d", f, i)); !ok || string(v) != "v" {
				t.Fatalf("k%d-%d lost after compaction", f, i)
			}
		}
	}
	if got := s.Len(); got != flushes*50 {
		t.Fatalf("Len = %d, want %d", got, flushes*50)
	}
}

// Model check under -race: writers, readers, flushes and explicit Compact
// calls race while background compactions swap runs underneath. Each key
// has one writer, whose ops are numbered; every fifth op is a delete. A read
// must show a put no older than the last op acked before the read began and
// no newer than the last one issued before it ended, or — if absent — some
// delete (or the initial absence, op 0) inside that window.
func TestConcurrentCompactionModel(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			opts := Options{FlushBytes: 2 << 10, MaxRuns: 2}
			if durable {
				opts.Dir, opts.SyncInterval = t.TempDir(), time.Hour
			}
			s := mustOpen(t, opts)
			defer s.Close()
			const writers, keysPer, batches = 3, 24, 150
			type keyState struct{ issued, acked atomic.Uint64 }
			state := make([]keyState, writers*keysPer)
			key := func(k int) string { return fmt.Sprintf("w%d-k%02d", k/keysPer, k%keysPer) }
			isDel := func(seq uint64) bool { return seq%5 == 0 }
			pad := strings.Repeat("p", 60)
			val := func(seq uint64) string { return fmt.Sprintf("%d:%s", seq, pad) }

			var writing, background sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, 16)
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					rng := sim.RNG(uint64(w), 5)
					// Past its batches, writer 0 keeps writing until a
					// compaction has published, sleeping before each extra
					// batch so the compacting goroutine gets scheduled:
					// without that the writers can finish (one CPU, no
					// fsync to wait on) before it or a reader first runs.
					for b := 0; b < batches || (w == 0 && b < batches+5000 && s.Stats().Compactions == 0); b++ {
						if b >= batches {
							time.Sleep(time.Millisecond)
						}
						n := 1 + rng.IntN(6)
						keys := make([]string, 0, n)
						vers := make([]uint64, 0, n)
						vals := make([][]byte, 0, n)
						dels := make([]bool, 0, n)
						ids := make([]int, 0, n)
						for len(ids) < n {
							k := w*keysPer + rng.IntN(keysPer)
							if slices.Contains(ids, k) {
								continue
							}
							seq := state[k].issued.Add(1)
							ids = append(ids, k)
							keys, vers = append(keys, key(k)), append(vers, seq)
							vals = append(vals, []byte(val(seq)))
							dels = append(dels, isDel(seq))
						}
						if err := s.ApplyMulti(keys, vers, vals, dels); err != nil {
							errs <- err
							return
						}
						for i, k := range ids {
							state[k].acked.Store(vers[i])
						}
					}
				}(w)
			}
			for r := 0; r < 3; r++ {
				background.Add(1)
				go func(r int) {
					defer background.Done()
					rng := sim.RNG(uint64(r), 6)
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := rng.IntN(len(state))
						lo := state[k].acked.Load()
						v, got, ok := s.GetVersioned(nil, key(k))
						hi := state[k].issued.Load()
						if ok {
							if got < lo || got > hi || isDel(got) || string(v) != val(got) {
								errs <- fmt.Errorf("%s = op %d (%.8q), want a put in ops [%d, %d]", key(k), got, v, lo, hi)
								return
							}
						} else if hi/5*5 < lo {
							errs <- fmt.Errorf("%s absent, but ops [%d, %d] hold no delete", key(k), lo, hi)
							return
						}
					}
				}(r)
			}
			background.Add(1)
			go func() {
				defer background.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%4 == 0 {
						s.Flush()
					}
					s.Compact()
				}
			}()
			writing.Wait()
			close(stop)
			background.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if s.Stats().Compactions == 0 {
				t.Fatal("no compaction ran")
			}
			// Quiescent: every key shows exactly its last acked op.
			for k := range state {
				if last := state[k].acked.Load(); isDel(last) {
					wantGet(t, s, key(k), "")
				} else {
					wantV(t, s, key(k), last, val(last))
				}
			}
		})
	}
}

func TestCompactionPreservesNewestVersion(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Put("k", []byte("v1"))
	s.Flush()
	s.Put("k", []byte("v2"))
	s.Flush()
	s.Put("k", []byte("v3"))
	s.Flush()
	s.Compact()
	if s.Runs() != 1 {
		t.Fatalf("runs after compact = %d", s.Runs())
	}
	if v, _ := s.Get("k"); string(v) != "v3" {
		t.Fatalf("compaction kept %q, want v3", v)
	}
}

// An in-memory run's values are views into the arenas of the batches that
// wrote them. Compaction copies the survivors into its own arena, so a live
// value no longer pins the whole batch arena it came from.
func TestInMemoryCompactionCopiesSurvivors(t *testing.T) {
	s := mustOpen(t, Options{MaxRuns: 100})
	for gen := 0; gen < 3; gen++ {
		keys := make([]string, 8)
		vals := make([][]byte, 8)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d-%d", gen, i)
			vals[i] = []byte(strings.Repeat("x", 16))
		}
		if err := s.PutAll(keys, vals); err != nil {
			t.Fatal(err)
		}
		mustPut(t, s, "empty", "")
		s.Flush()
	}
	s.mu.RLock()
	inputs := map[*byte]bool{}
	for _, r := range s.runs {
		for _, v := range r.vals {
			if len(v) > 0 {
				inputs[&v[0]] = true
			}
		}
	}
	s.mu.RUnlock()
	s.Compact()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.runs) != 1 {
		t.Fatalf("runs = %d after compact, want 1", len(s.runs))
	}
	out := s.runs[0]
	for i, v := range out.vals {
		if v == nil {
			t.Fatalf("%s: live value came out as a tombstone", out.keys[i])
		}
		if len(v) > 0 && inputs[&v[0]] {
			t.Fatalf("%s: compaction output still points into a batch arena", out.keys[i])
		}
	}
	if len(out.keys) != 3*8+1 {
		t.Fatalf("compaction kept %d keys, want %d", len(out.keys), 3*8+1)
	}
}

func TestBloomSkipsCounted(t *testing.T) {
	s := mustOpen(t, Options{})
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("present-%d", i), []byte("v"))
	}
	s.Flush()
	for i := 0; i < 1000; i++ {
		s.Get(fmt.Sprintf("absent-%d", i))
	}
	st := s.Stats()
	// ≈99% of absent lookups should be bloom-skipped.
	if st.BloomSkips < 900 {
		t.Fatalf("bloom skips = %d/1000, filter ineffective", st.BloomSkips)
	}
}

func TestReadAmplificationGrowsWithRuns(t *testing.T) {
	// The cassim storage model assumes more runs → more work per read;
	// verify the real engine exhibits it.
	s := mustOpen(t, Options{FlushBytes: 1 << 30, MaxRuns: 100})
	for f := 0; f < 8; f++ {
		for i := 0; i < 100; i++ {
			s.Put(fmt.Sprintf("f%d-k%d", f, i), []byte("v"))
		}
		s.Flush()
	}
	before := s.Stats().RunsConsulted
	// Keys in the oldest run require walking past newer runs (bloom
	// filters prune most, but hits on the right run still count).
	for i := 0; i < 100; i++ {
		s.Get(fmt.Sprintf("f0-k%d", i))
	}
	consulted := s.Stats().RunsConsulted - before
	if consulted < 100 {
		t.Fatalf("consulted %d runs for 100 oldest-run reads", consulted)
	}
}

func TestValueIsolation(t *testing.T) {
	s := mustOpen(t, Options{})
	buf := []byte("mutable")
	s.Put("k", buf)
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q", v)
	}
	v[0] = 'Y'
	v2, _ := s.Get("k")
	if string(v2) != "mutable" {
		t.Fatalf("returned buffer aliased store: %q", v2)
	}
}

func TestEmptyFlushNoop(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Flush()
	if s.Runs() != 0 || s.Stats().Flushes != 0 {
		t.Fatal("empty flush created a run")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, Options{FlushBytes: 4096})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%50)
				s.Put(k, []byte(fmt.Sprintf("v%d", i)))
				s.Get(k)
				if i%100 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait() // run with -race
}

// Property: the store agrees with a plain map reference model under any
// sequence of put/delete/flush/compact operations.
func TestModelEquivalenceProperty(t *testing.T) {
	r := sim.RNG(1, 1)
	f := func(ops []uint16) bool {
		s := mustOpen(t, Options{FlushBytes: 1 << 30, MaxRuns: 4})
		model := map[string]string{}
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op%17)
			switch op % 5 {
			case 0, 1, 2:
				val := fmt.Sprintf("v%d", r.IntN(1000))
				s.Put(key, []byte(val))
				model[key] = val
			case 3:
				s.Delete(key)
				delete(model, key)
			case 4:
				s.Flush()
			}
		}
		for k, want := range model {
			got, ok := s.Get(k)
			if !ok || string(got) != want {
				return false
			}
		}
		for i := 0; i < 17; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, inModel := model[k]; !inModel {
				if _, ok := s.Get(k); ok {
					return false
				}
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []string) bool {
		b := NewBloom(len(keys))
		for _, k := range keys {
			b.Add(k)
		}
		for _, k := range keys {
			if !b.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBloom(10000)
	for i := 0; i < 10000; i++ {
		b.Add(fmt.Sprintf("in-%d", i))
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MayContain(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.03 {
		t.Fatalf("false positive rate = %v, want < 3%%", rate)
	}
}

func BenchmarkPut(b *testing.B) {
	s := mustOpen(b, Options{})
	val := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("key-%d", i%100000), val)
	}
}

func BenchmarkGetHot(b *testing.B) {
	s := mustOpen(b, Options{})
	val := make([]byte, 1024)
	for i := 0; i < 10000; i++ {
		s.Put(fmt.Sprintf("key-%d", i), val)
	}
	s.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("key-%d", i%10000))
	}
}

func TestGetAppend(t *testing.T) {
	s := mustOpen(t, Options{})
	s.Put("k", []byte("value"))
	s.Put("empty", nil)
	s.Delete("dead")

	dst := []byte("prefix-")
	out, ok := s.GetAppend(dst, "k")
	if !ok || string(out) != "prefix-value" {
		t.Fatalf("GetAppend = %q, %v", out, ok)
	}
	// Missing and tombstoned keys leave dst untouched.
	if out, ok := s.GetAppend(dst, "nope"); ok || string(out) != "prefix-" {
		t.Fatalf("missing: %q, %v", out, ok)
	}
	if out, ok := s.GetAppend(dst, "dead"); ok || string(out) != "prefix-" {
		t.Fatalf("tombstone: %q, %v", out, ok)
	}

	// Values served from immutable runs append identically, and appending
	// to the returned slice must never corrupt the stored value.
	s.Flush()
	out, ok = s.GetAppend(nil, "k")
	if !ok || string(out) != "value" {
		t.Fatalf("after flush: %q, %v", out, ok)
	}
	_ = append(out, "-scribble"...)
	if v, ok := s.Get("k"); !ok || string(v) != "value" {
		t.Fatalf("stored value corrupted: %q, %v", v, ok)
	}
}
