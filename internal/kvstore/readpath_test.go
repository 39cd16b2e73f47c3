package kvstore

import (
	"fmt"
	"testing"
	"time"
)

// Read-ladder tests: the dispatch shape (one data read plus R-1 digests),
// ALL reading every replica, a digest newer than the data, the hedge for a
// late responder, and selector accounting across all of it.

// pinnedClient dials one coordinator only, so the test knows whose counters
// and whose ranking a read goes through.
func pinnedClient(t *testing.T, n *Node) *Client {
	t.Helper()
	cl, err := Dial([]string{n.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// putAll writes every key at ALL, so each replica holds it.
func putAll(t *testing.T, cl *Client, keys []string, val string) {
	t.Helper()
	for _, k := range keys {
		if err := cl.PutAt(k, []byte(val+k), All); err != nil {
			t.Fatalf("PutAt(%s): %v", k, err)
		}
	}
}

func ladderKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return keys
}

// TestQuorumReadDispatchShape: on a healthy 3-node cluster a QUORUM GET is
// one data read plus one digest — not a full read of every replica — so
// 1,000 GETs cost at most 1.1 data reads and 1.1 digests each (hedges take
// the slack).
func TestQuorumReadDispatchShape(t *testing.T) {
	cfg := Config{Seed: 31, ReadRepair: -1}
	cfg.Hedge.MinDelay = 5 * time.Millisecond // a healthy cluster: no spurious hedges
	c, cl := startTestCluster(t, 3, cfg)
	keys := ladderKeys("shape", 50)
	putAll(t, cl, keys, "v-")
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	before := coord.StatsSnapshot()
	const gets = 1000
	for i := 0; i < gets; i++ {
		k := keys[i%len(keys)]
		if v, ok, err := pinned.GetAt(k, Quorum); err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("GetAt(%s) = %q,%v,%v", k, v, ok, err)
		}
	}
	after := coord.StatsSnapshot()
	data := float64(after.ReplicaReads-before.ReplicaReads) / gets
	digests := float64(after.DigestReads-before.DigestReads) / gets
	if data < 1 || data > 1.1 || digests < 1 || digests > 1.1 {
		t.Fatalf("per QUORUM GET: %.3f data reads and %.3f digests, want 1..1.1 of each", data, digests)
	}
	if after.DigestFetches != before.DigestFetches {
		t.Fatalf("a converged cluster fetched %d values after digests", after.DigestFetches-before.DigestFetches)
	}
}

// TestAllReadsEveryReplica: R = N at ALL — every replica serves every point
// and batch read, one of them with values and the rest with versions.
func TestAllReadsEveryReplica(t *testing.T) {
	cfg := Config{Seed: 32, ReadRepair: -1}
	cfg.Hedge.MinDelay, cfg.Hedge.MaxDelay = time.Hour, time.Hour // no hedge fires
	c, cl := startTestCluster(t, 3, cfg)
	keys := ladderKeys("all", 8)
	putAll(t, cl, keys, "v-")
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	var served [3]uint64
	for i, n := range c.Nodes {
		served[i] = n.ReadsServed()
	}
	before := coord.StatsSnapshot()
	const gets = 20
	for i := 0; i < gets; i++ {
		k := keys[i%len(keys)]
		if v, ok, err := pinned.GetAt(k, All); err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("GetAt(%s, All) = %q,%v,%v", k, v, ok, err)
		}
	}
	vals, found, err := pinned.MultiGetAt(keys, All)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !found[i] || string(vals[i]) != "v-"+k {
			t.Fatalf("MultiGetAt(All) %s = %q,%v", k, vals[i], found[i])
		}
	}
	reads := uint64(gets + len(keys))
	for i, n := range c.Nodes {
		if got := n.ReadsServed() - served[i]; got != reads {
			t.Fatalf("node %d served %d reads, want every one of %d", i, got, reads)
		}
	}
	after := coord.StatsSnapshot()
	if d := after.ReplicaReads - before.ReplicaReads; d != reads {
		t.Fatalf("data reads = %d, want %d", d, reads)
	}
	if d := after.DigestReads - before.DigestReads; d != 2*reads {
		t.Fatalf("digests = %d, want %d", d, 2*reads)
	}
}

// TestDigestNewerThanDataFetches: the C3-best replica — the coordinator's
// own, with the other two made slightly slower so the ranking is certain —
// drops a round of writes, so the data read gets the old version while a
// digest reports the new one. The read must fetch the value from the
// digest's replica, return the newest value, and repair the data replica
// before it returns.
func TestDigestNewerThanDataFetches(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 33, ReadRepair: -1})
	keys := ladderKeys("fetch", 10)
	putAll(t, cl, keys, "old-")
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	for _, n := range c.Nodes[1:] {
		n.SetSlowdown(2 * time.Millisecond)
		defer n.SetSlowdown(0)
	}
	for i := 0; i < 100; i++ { // rank the local replica best
		pinned.GetAt(keys[i%len(keys)], Quorum)
	}
	coord.SetDropWrites(true)
	for _, k := range keys {
		if err := pinned.PutAt(k, []byte("new-"+k), Quorum); err != nil {
			t.Fatalf("PutAt(%s): %v", k, err)
		}
	}
	coord.SetDropWrites(false)
	before := coord.StatsSnapshot()
	for _, k := range keys {
		if v, ok, err := pinned.GetAt(k, Quorum); err != nil || !ok || string(v) != "new-"+k {
			t.Fatalf("GetAt(%s) = %q,%v,%v, want the digest's newer value", k, v, ok, err)
		}
		if v, _, ok := coord.Store().GetVersioned(nil, k); !ok || string(v) != "new-"+k {
			t.Fatalf("data replica still holds %q for %s after the read returned", v, k)
		}
	}
	after := coord.StatsSnapshot()
	if after.DigestFetches == before.DigestFetches {
		t.Fatal("no value was fetched after a newer digest")
	}
	if after.Repairs == before.Repairs {
		t.Fatal("the stale data replica was not repaired")
	}
}

// TestQuorumHedgeRescuesSlowResponder: one of the R replicas — the
// coordinator's own, ranked best — turns 20 ms slow. Its data read is late,
// so a hedge goes to the third replica and the read finishes well inside the
// slowdown.
func TestQuorumHedgeRescuesSlowResponder(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 34, ReadRepair: -1})
	keys := ladderKeys("hedge", 10)
	putAll(t, cl, keys, "v-")
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	for i := 0; i < 300; i++ { // rank the local replica best; train the hedge delay
		pinned.GetAt(keys[i%len(keys)], Quorum)
	}
	hedges, wins := coord.HedgesIssued(), coord.HedgeWins()
	coord.SetSlowdown(20 * time.Millisecond)
	defer coord.SetSlowdown(0)
	for i := 0; i < 10; i++ {
		k := keys[i]
		t0 := time.Now()
		v, ok, err := pinned.GetAt(k, Quorum)
		if d := time.Since(t0); d > 12*time.Millisecond {
			t.Fatalf("GetAt(%s) took %v under a 20ms slowdown of one responder", k, d)
		}
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("GetAt(%s) = %q,%v,%v", k, v, ok, err)
		}
	}
	if coord.HedgesIssued() == hedges || coord.HedgeWins() == wins {
		t.Fatalf("hedges %d -> %d, wins %d -> %d: the slow responder was not hedged",
			hedges, coord.HedgesIssued(), wins, coord.HedgeWins())
	}
}

// TestReadLadderAccountingBalanced: point and batch quorum reads through
// every coordinator while one replica is slow (hedges), one holds stale
// values (fetches and repairs) and then one dies (failovers). Every read
// answers the newest value, and afterwards no selector holds a residual.
func TestReadLadderAccountingBalanced(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 35})
	keys := ladderKeys("acct", 16)
	putAll(t, cl, keys, "old-")
	c.Nodes[2].SetDropWrites(true)
	for _, k := range keys {
		if err := cl.PutAt(k, []byte("new-"+k), Quorum); err != nil {
			t.Fatalf("PutAt(%s): %v", k, err)
		}
	}
	c.Nodes[2].SetDropWrites(false)
	check := func(cl *Client, i int) {
		t.Helper()
		k := keys[i%len(keys)]
		if v, ok, err := cl.GetAt(k, Quorum); err != nil || !ok || string(v) != "new-"+k {
			t.Fatalf("GetAt(%s) = %q,%v,%v", k, v, ok, err)
		}
		batch := keys[i%4 : i%4+8]
		vals, found, err := cl.MultiGetAt(batch, Quorum)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range batch {
			if !found[j] || string(vals[j]) != "new-"+k {
				t.Fatalf("MultiGetAt %s = %q,%v", k, vals[j], found[j])
			}
		}
	}
	c.Nodes[1].SetSlowdown(3 * time.Millisecond)
	for i := 0; i < 60; i++ {
		check(cl, i)
	}
	c.Nodes[1].SetSlowdown(0)
	c.Nodes[1].Close()
	live := []*Node{c.Nodes[0], c.Nodes[2]}
	for _, n := range live {
		pinned := pinnedClient(t, n)
		for i := 0; i < 30; i++ {
			check(pinned, i)
		}
	}
	settleOutstanding(t, live, 3, 5*time.Second)
}
