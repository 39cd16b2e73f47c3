package kvstore

import (
	"fmt"
	"net"
	"testing"

	"c3/internal/lsm"
	"c3/internal/wire"
)

// The shared-version batch shape — the coordinator's own leg of a batch
// write: keys, values and one stamp — reaches storage through the shard
// writers (applyLeg): its records are laid out by shard in a pooled
// replicaWrite, each touched shard's writer applies its share as one pooled
// task, and the store copies each record into its memtable slot, so nothing
// is allocated per record or per task. The whole write, coordinator
// included, is pinned at one allocation per touched shard; it measures 1,
// the coordinator's per-key acks.
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
	done := make(chan wire.WriteResp, 1)
	apply := func() {
		g := batchGather(keys, vals, nil)
		g.done = done
		n.coordinateWrite(g, One) // every record beats the stored version
		if out := <-done; !out.OK {
			t.Fatalf("local leg failed: %+v", out)
		}
	}
	for i := 0; i < 8; i++ {
		apply() // warm the pools and grow the memtable out of the measurement
	}
	if got := testing.AllocsPerRun(200, apply); got > shards {
		t.Errorf("shared-version batch of %d allocates %.1f/batch, want <= %d", nk, got, shards)
	}
	ver := n.hlc.Load() // the last stamp
	for _, k := range keys {
		if _, v, ok := n.store.GetVersioned(nil, k); !ok || v != ver {
			t.Fatalf("key %s at version %d,%v; want %d", k, v, ok, ver)
		}
	}
}

// TestMaxBatchWriteLegLandsThroughWriters: a MsgBatchWriteInternal frame of
// wire.MaxBatchKeys keys is acked key by key, every key stored under the
// frame's stamp. It lands through the shard writers: the drop-writes fault,
// which only they apply, fails every key of the next such frame, while the
// same records as a MsgStreamPush still land — a stream push heals. A leg
// frame with the Del bit then deletes every key.
func TestMaxBatchWriteLegLandsThroughWriters(t *testing.T) {
	c, _ := startTestCluster(t, 1, Config{Seed: 17, Shards: 4, RF: 1})
	n := c.Nodes[0]
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newRPCConn(conn)
	defer p.close()
	keys, vals := batchKeysVals("maxleg", wire.MaxBatchKeys)
	write := func(typ uint8, ver uint64, del bool, vals [][]byte) []bool {
		t.Helper()
		oks, _, _, err := p.batchWrite(typ, wire.LevelOne, ver, del, keys, vals, nil)
		if err != nil || len(oks) != len(keys) {
			t.Fatalf("frame of %d keys: %d acks, err %v", len(keys), len(oks), err)
		}
		return oks
	}
	stored := func(ver uint64) {
		t.Helper()
		for i, k := range keys {
			if v, got, ok := n.store.GetVersioned(nil, k); !ok || got != ver || string(v) != string(vals[i]) {
				t.Fatalf("key %s = %q at %d,%v; want version %d", k, v, got, ok, ver)
			}
		}
	}
	ver := n.stampVersion()
	for i, ok := range write(wire.MsgBatchWriteInternal, ver, false, vals) {
		if !ok {
			t.Fatalf("key %s not acked", keys[i])
		}
	}
	stored(ver)

	n.SetDropWrites(true)
	for i, ok := range write(wire.MsgBatchWriteInternal, ver+1, false, vals) {
		if ok {
			t.Fatalf("key %s acked while the node drops writes", keys[i])
		}
	}
	stored(ver)
	raws := make([][]byte, len(keys))
	for i := range raws {
		raws[i] = lsm.AppendVersioned(nil, ver+2, vals[i])
	}
	for i, ok := range write(wire.MsgStreamPush, 0, false, raws) {
		if !ok {
			t.Fatalf("streamed key %s not acked", keys[i])
		}
	}
	stored(ver + 2)
	n.SetDropWrites(false)

	for i, ok := range write(wire.MsgBatchWriteInternal, ver+3, true, make([][]byte, len(keys))) {
		if !ok {
			t.Fatalf("delete of %s not acked", keys[i])
		}
	}
	for _, k := range keys {
		if n.store.Has(k) {
			t.Fatalf("key %s survived a delete leg", k)
		}
	}
}

// TestBatchDeleteIsNotAClientFeature: only a coordinator→replica leg may set
// the batch write's Del bit; a client MsgBatchWrite carrying it is a
// protocol error, which drops the connection.
func TestBatchDeleteIsNotAClientFeature(t *testing.T) {
	c, _ := startTestCluster(t, 1, Config{Seed: 18, RF: 1})
	conn, err := net.Dial("tcp", c.Nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newRPCConn(conn)
	defer p.close()
	keys, vals := batchKeysVals("cdel", 2)
	if _, _, _, err := p.batchWrite(wire.MsgBatchWrite, wire.LevelOne, 0, true, keys, vals, nil); err == nil {
		t.Fatal("a client batch delete was answered")
	}
	for _, k := range keys {
		if c.Nodes[0].store.Has(k) {
			t.Fatalf("a client batch delete wrote %s", k)
		}
	}
}
