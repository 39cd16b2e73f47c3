package kvstore

import (
	"fmt"
	"testing"
)

// The shared-version batch shape — an internal batch write or the batch
// coordinator's local leg: keys, values and one stamp — reaches storage
// through applyClientBatch, whose per-record version column comes from a
// pool, not from a slice per call. The store copies each record into its
// memtable slot and allocates nothing per batch, so the whole apply is
// pinned at one allocation per touched shard of slack; it measures 0 (it
// used to take one value arena per touched shard).
func TestSharedVersionBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const shards = 2
	c, _ := startTestCluster(t, 1, Config{Seed: 16, Shards: shards, RF: 1})
	n := c.Nodes[0]
	const nk = 64
	keys := make([]string, nk)
	vals := make([][]byte, nk)
	for i := range keys {
		keys[i] = fmt.Sprintf("shared-%02d", i)
		vals[i] = make([]byte, 128)
	}
	ver := n.stampVersion()
	apply := func() {
		ver++ // every record beats the stored version
		if err := n.applyClientBatch(keys, ver, vals); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		apply() // warm the pools and grow the memtable out of the measurement
	}
	if got := testing.AllocsPerRun(200, apply); got > shards {
		t.Errorf("shared-version batch of %d allocates %.1f/batch, want <= %d", nk, got, shards)
	}
	for _, k := range keys {
		if _, v, ok := n.store.GetVersioned(nil, k); !ok || v != ver {
			t.Fatalf("key %s at version %d,%v; want %d", k, v, ok, ver)
		}
	}
}
