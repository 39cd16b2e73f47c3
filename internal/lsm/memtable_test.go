package lsm

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// callerBuf stages one record the way a replica does: key and value in one
// buffer the caller reuses as soon as ApplyMulti returns. scribble is that
// reuse.
type callerBuf struct{ b []byte }

func (c *callerBuf) record(key, val string) (string, []byte) {
	c.b = append(append(c.b[:0], key...), val...)
	return unsafe.String(&c.b[0], len(key)), c.b[len(key):]
}

func (c *callerBuf) scribble() {
	for i := range c.b {
		c.b[i] = '#'
	}
}

// ApplyMulti retains no caller bytes: every record is applied from a buffer
// that is overwritten with garbage right after the call, and the store must
// still serve every key from Get, AppendLiveKeys, a flush (and a reopen, when
// durable) and a compaction. Each overwrite comes from a different buffer
// than its key's insert: a store that assigned its index through the
// overwriting key would end up keyed by garbage.
func TestApplyMultiRetainsNoCallerBytes(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			opts := Options{MaxRuns: 100}
			if durable {
				opts.Dir = t.TempDir()
			}
			s := mustOpen(t, opts)
			defer func() { s.Close() }()
			ver := uint64(0)
			apply := func(key, val string, del bool) {
				t.Helper()
				var c callerBuf
				k, v := c.record(key, val)
				ver++
				if err := s.ApplyMulti([]string{k}, []uint64{ver}, [][]byte{v}, []bool{del}); err != nil {
					t.Fatal(err)
				}
				c.scribble()
			}
			want := map[string]string{}
			put := func(key, val string) { apply(key, val, false); want[key] = val }
			put("first-insert", "one")
			put("same-size", "aaaa")
			put("same-size", "bbbb")
			put("larger", "small")
			put("larger", "a considerably larger value")
			apply("del-then-put", "gone", false)
			apply("del-then-put", "", true)
			put("del-then-put", "back")
			apply("deleted", "x", false)
			apply("deleted", "", true)
			check := func(stage string) {
				t.Helper()
				for k, v := range want {
					if got, _, ok := s.GetVersioned(nil, k); !ok || string(got) != v {
						t.Fatalf("%s: Get(%s) = %q,%v, want %q", stage, k, got, ok, v)
					}
				}
				wantGet(t, s, "deleted", "")
				var keys []string
				for k := range want {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if got := s.AppendLiveKeys(nil); !slices.Equal(got, keys) {
					t.Fatalf("%s: AppendLiveKeys = %q, want %q", stage, got, keys)
				}
			}
			check("memtable")
			s.Flush()
			check("flushed")
			if durable {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = mustOpen(t, opts)
				check("reopened")
			}
			put("same-size", "cccc") // a second run to merge
			s.Flush()
			s.Compact()
			if got := s.Runs(); got != 1 {
				t.Fatalf("runs = %d after compaction, want 1", got)
			}
			check("compacted")
		})
	}
}

// Runs do not pin dead memtable generations. Every cycle writes the same hot
// keys plus one cold key and flushes; after a final compaction only the live
// data — a few hundred KiB — may stay on the heap, however many generations
// came and went. A run whose keys were views into its generation's chunks
// would keep one chunk per surviving cold key alive: megabytes at these
// cycle counts.
func TestRunsDoNotPinDeadGenerations(t *testing.T) {
	const hot, valLen, bound = 64, 512, 4 << 20
	for _, durable := range []bool{false, true} {
		for _, cycles := range []int{100, 400} {
			t.Run(fmt.Sprintf("durable=%v/cycles=%d", durable, cycles), func(t *testing.T) {
				opts := Options{SyncInterval: time.Hour}
				if durable {
					opts.Dir = t.TempDir()
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s := mustOpen(t, opts)
				defer s.Close()
				keys := make([]string, hot+1)
				vals := make([][]byte, hot+1)
				for i := 0; i < hot; i++ {
					keys[i] = fmt.Sprintf("hot-%03d", i)
				}
				for i := range vals {
					vals[i] = make([]byte, valLen)
				}
				for c := 0; c < cycles; c++ {
					keys[hot] = fmt.Sprintf("cold-%05d", c)
					if err := s.PutAll(keys, vals); err != nil {
						t.Fatal(err)
					}
					s.Flush()
				}
				s.Compact()
				runtime.GC()
				runtime.ReadMemStats(&after)
				if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > bound {
					t.Errorf("heap in use grew by %d KiB over %d cycles, want <= %d KiB", grew>>10, cycles, bound>>10)
				}
				wantGet(t, s, "cold-00000", string(vals[0]))
				runtime.KeepAlive(s)
			})
		}
	}
}
