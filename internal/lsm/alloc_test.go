package lsm

import (
	"fmt"
	"testing"
)

// The hot write path's allocation profile, pinned: one ApplyMulti of the
// shard writer's call shape — 64 versioned records against one shard, the
// writer's own keys/vers/vals/dels columns reused across drains — costs the
// value arena, the slice of private copies and the kept-keys slice, plus, on
// a durable store, the WAL commit group and its done channel. The memtable
// overwrites in place (same keys every drain), so nothing else may allocate:
// a regression here is a per-batch cost on every replicated write.
func TestApplyMultiAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		budget float64
	}{
		{"inmem", Options{}, 3},
		{"durable", Options{NoSync: true}, 5},
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
