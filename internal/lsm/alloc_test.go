package lsm

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The hot write path's allocation profile, pinned: one ApplyMulti of the
// shard writer's call shape — 64 versioned records against one shard, the
// writer's own keys/vers/vals/dels columns reused across drains — allocates
// nothing, in memory or durable. The memtable rewrites each record in its
// slot (same keys, same sizes every drain), the WAL encodes into its reused
// buffer, and a commit group is a sequence number waited on with a
// condition variable. It used to cost a value arena per batch, plus a commit
// group and its channel on a durable store (1 and 3); a regression here is a
// per-batch cost on every replicated write.
func TestApplyMultiAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		budget float64
	}{
		{"inmem", Options{}, 0},
		{"durable", Options{SyncInterval: time.Hour}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "durable" {
				tc.opts.Dir = t.TempDir()
			}
			s := mustOpen(t, tc.opts)
			defer s.Close()
			const n = 64
			keys := make([]string, n)
			vers := make([]uint64, n)
			vals := make([][]byte, n)
			dels := make([]bool, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("alloc-%02d", i)
				vals[i] = make([]byte, 128)
			}
			ver := uint64(0)
			drain := func() {
				ver++
				for i := range vers {
					vers[i] = ver // every record beats the stored version
				}
				if err := s.ApplyMulti(keys, vers, vals, dels); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				drain() // grow the memtable and the WAL buffers out of the measurement
			}
			if got := testing.AllocsPerRun(200, drain); got > tc.budget {
				t.Errorf("ApplyMulti of %d records allocates %.1f/batch, want <= %.0f", n, got, tc.budget)
			}
		})
	}
}

// Compaction is a streaming merge: its allocations — the output run's
// columns, filter and cache, the file handles, the manifest edit, one cursor
// slice — do not grow with the number of keys. Five cached runs of 1,000 and
// of 4,000 overlapping keys each must compact within one fixed budget; a
// per-key copy, map entry or sort would cost thousands.
func TestCompactAllocBudget(t *testing.T) {
	const runs, budget = 5, 80
	for _, n := range []int{1000, 4000} {
		t.Run(fmt.Sprintf("keys=%d", n), func(t *testing.T) {
			s := mustOpen(t, Options{Dir: t.TempDir(), SyncInterval: time.Hour, FlushBytes: 1 << 30, MaxRuns: 100})
			defer s.Close()
			val := make([]byte, 100)
			for r := 0; r < runs; r++ {
				keys := make([]string, n)
				vals := make([][]byte, n)
				for i := range keys {
					keys[i] = fmt.Sprintf("key-%07d", r*n/2+i) // each run overlaps the last
					vals[i] = val
				}
				if err := s.PutAll(keys, vals); err != nil {
					t.Fatal(err)
				}
				s.Flush()
			}
			if got := s.Runs(); got != runs {
				t.Fatalf("runs = %d before compaction, want %d", got, runs)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Compact()
			runtime.ReadMemStats(&after)
			if got := s.Runs(); got != 1 {
				t.Fatalf("runs = %d after compaction, want 1", got)
			}
			if got := after.Mallocs - before.Mallocs; got > budget {
				t.Errorf("compacting %d runs × %d keys allocated %d objects, want <= %d", runs, n, got, budget)
			}
			wantGet(t, s, fmt.Sprintf("key-%07d", 0), string(val))
			wantGet(t, s, fmt.Sprintf("key-%07d", (runs-1)*n/2+n-1), string(val))
		})
	}
}
