package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"c3/internal/sim"
	"c3/internal/workload"
)

func startTestCluster(t *testing.T, n int, cfg Config) (*Cluster, *Client) {
	t.Helper()
	c, err := StartCluster(n, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cl.Close)
	return c, cl
}

func TestPutGetThroughAnyCoordinator(t *testing.T) {
	_, cl := startTestCluster(t, 5, Config{Seed: 1})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := cl.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
	// Round-robin coordinators: every read may land on a different node,
	// yet must find the value (RF=3, write fan-out to all replicas).
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		// Writes ack on the first replica (CL=ONE); give laggards a
		// moment, then retry once for robustness.
		var ok bool
		var val []byte
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			val, ok, err = cl.Get(key)
			if err != nil {
				t.Fatalf("Get(%s): %v", key, err)
			}
			if ok {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !ok || string(val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q, %v", key, val, ok)
		}
	}
}

func TestMissingKey(t *testing.T) {
	_, cl := startTestCluster(t, 3, Config{Seed: 2})
	_, ok, err := cl.Get("never-written")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing key reported found")
	}
}

func TestAllStrategiesServe(t *testing.T) {
	for _, st := range []string{StratC3, StratLOR, StratRR, StratRND} {
		st := st
		t.Run(st, func(t *testing.T) {
			_, cl := startTestCluster(t, 4, Config{Seed: 3, Strategy: st})
			if err := cl.Put("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, _, err := cl.Get("k"); err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
			}
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	c, cl := startTestCluster(t, 5, Config{Seed: 4})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := cl.Put(key, []byte("v")); err != nil {
					errs <- err
					return
				}
				if _, _, err := cl.Get(key); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Reads must have been coordinated across multiple nodes.
	coords := 0
	for _, n := range c.Nodes {
		if n.StatsSnapshot().ReadsCoordinated > 0 {
			coords++
		}
	}
	if coords < 2 {
		t.Fatalf("only %d nodes coordinated reads", coords)
	}
}

func TestReplicaSelectionSpreadsReads(t *testing.T) {
	c, cl := startTestCluster(t, 5, Config{Seed: 5})
	key := "hot-key"
	if err := cl.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the write fan-out settle
	for i := 0; i < 300; i++ {
		if _, _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly the RF=3 replicas of the key should have served reads,
	// and more than one of them (C3 explores, then spreads).
	servers := 0
	total := uint64(0)
	for _, n := range c.Nodes {
		if s := n.ReadsServed(); s > 0 {
			servers++
			total += s
		}
	}
	if total < 300 {
		t.Fatalf("served %d reads, want ≥ 300", total)
	}
	if servers < 2 || servers > 3 {
		t.Fatalf("reads served by %d nodes, want 2–3 (the replica set)", servers)
	}
}

func TestC3AvoidsSlowedReplica(t *testing.T) {
	// The live-system headline: degrade one replica and C3 must shift
	// read traffic to the other two — the TCP analogue of Fig. 13.
	cfg := Config{Seed: 6, ReadDelayMean: 200 * time.Microsecond}
	c, cl := startTestCluster(t, 3, cfg) // RF=3: every node replicates every key
	for i := 0; i < 20; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	warm := func(rounds int) {
		r := sim.RNG(1, 1)
		for i := 0; i < rounds; i++ {
			cl.Get(fmt.Sprintf("k%d", r.IntN(20)))
		}
	}
	warm(200)
	before := make([]uint64, 3)
	for i, n := range c.Nodes {
		before[i] = n.ReadsServed()
	}
	// Degrade node 2 massively.
	c.Nodes[2].SetSlowdown(20 * time.Millisecond)
	warm(400)
	var slowDelta, fastDelta uint64
	for i, n := range c.Nodes {
		d := n.ReadsServed() - before[i]
		if i == 2 {
			slowDelta = d
		} else {
			fastDelta += d
		}
	}
	// The slowed node must receive well under a fair third of the reads.
	if slowDelta*4 > fastDelta {
		t.Fatalf("slowed node still served %d vs %d on healthy nodes", slowDelta, fastDelta)
	}
}

func TestBackpressureEngagesUnderTinyRates(t *testing.T) {
	cfg := Config{Seed: 7}
	cfg.Rate.InitialRate = 0.6
	cfg.Rate.MaxRate = 1
	cfg.BackpressureTimeout = 3 * time.Second
	c, cl := startTestCluster(t, 3, cfg)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 12; i++ {
		if _, _, err := cl.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	waits := uint64(0)
	for _, n := range c.Nodes {
		waits += n.StatsSnapshot().ReadsWaited
	}
	if waits == 0 {
		t.Fatalf("no backpressure waits despite 0.6 req/δ limit (took %v)", elapsed)
	}
}

func TestWorkloadDrivenSmoke(t *testing.T) {
	// A miniature YCSB run against the live store.
	_, cl := startTestCluster(t, 5, Config{Seed: 8})
	keys := workload.NewScrambled(200, 0.99)
	mix := workload.ReadHeavy
	r := sim.RNG(9, 9)
	for i := 0; i < 300; i++ {
		k := workload.Key(keys.Next(r))
		if mix.Choose(r) == workload.OpRead {
			if _, _, err := cl.Get(k); err != nil {
				t.Fatalf("get: %v", err)
			}
		} else {
			if err := cl.Put(k, []byte("value")); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
}

func TestNodeCloseIsClean(t *testing.T) {
	c, err := StartCluster(3, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := Dial(c.Addrs())
	cl.Put("k", []byte("v"))
	cl.Close()
	c.Close() // must not hang or panic
	c.Close() // double close must be safe
}

// TestStatsSnapshotAfterShutdown: StatsSnapshot is the one reader of the
// coordinator and hint counters, so it must answer after Close and after
// Crash, keeping the counts the node had. Nodes 0 and 1 each coordinate a
// hedge, a quorum failure, a write failure, a repair and a banked hint; then
// node 0 closes and node 1 crashes.
func TestStatsSnapshotAfterShutdown(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 36, ReadRepair: -1, DataDir: t.TempDir()})
	keys := ladderKeys("snap", 10)
	coords := c.Nodes[:2]
	pinned := make([]*Client, len(coords))
	for i, coord := range coords {
		pinned[i] = pinnedClient(t, coord)
		cl := pinned[i]
		putAll(t, cl, keys, "v-")
		for j := 0; j < 300; j++ { // rank the local replica best; train the hedge delay
			cl.GetAt(keys[j%len(keys)], Quorum)
		}
		coord.SetSlowdown(20 * time.Millisecond)
		hedges := coord.StatsSnapshot().HedgesSent
		for j := 0; coord.StatsSnapshot().HedgesSent == hedges; j++ {
			if j == 200 {
				t.Fatalf("node %d: 200 reads of a slowed local replica sent no hedge", i)
			}
			cl.GetAt(keys[j%len(keys)], Quorum)
		}
		coord.SetSlowdown(0)

		// An ALL write that node 2 refuses misses its level; the ALL read
		// after it repairs node 2. The write answers on node 2's refusal,
		// so the read waits until the other legs have landed.
		stale := fmt.Sprintf("snap-stale-%d", i)
		c.Nodes[2].SetDropWrites(true)
		if err := cl.PutAt(stale, []byte("v"), All); err == nil {
			t.Fatalf("node %d: ALL write acked with node 2 refusing it", i)
		}
		c.Nodes[2].SetDropWrites(false)
		waitFor(t, 3*time.Second, "the ALL write's legs to nodes 0 and 1", func() bool {
			_, _, ok0 := c.Nodes[0].Store().GetVersioned(nil, stale)
			_, _, ok1 := c.Nodes[1].Store().GetVersioned(nil, stale)
			return ok0 && ok1
		})
		if _, ok, err := cl.GetAt(stale, All); err != nil || !ok {
			t.Fatalf("node %d: ALL read = %v,%v", i, ok, err)
		}

		// A write every replica refuses fails outright.
		for _, n := range c.Nodes {
			n.SetDropWrites(true)
		}
		if err := cl.PutAt(fmt.Sprintf("snap-lost-%d", i), []byte("v"), One); err == nil {
			t.Fatalf("node %d: write acked with every replica refusing it", i)
		}
		for _, n := range c.Nodes {
			n.SetDropWrites(false)
		}
	}
	// A write toward a down replica is banked as a hint.
	c.Nodes[2].Close()
	for i, cl := range pinned {
		if err := cl.PutAt(fmt.Sprintf("snap-hint-%d", i), []byte("v"), One); err != nil {
			t.Fatalf("node %d: write with one replica down: %v", i, err)
		}
	}
	settleOutstanding(t, coords, 3, 3*time.Second)

	before := []NodeStats{coords[0].StatsSnapshot(), coords[1].StatsSnapshot()}
	for i, st := range before {
		for name, v := range map[string]uint64{
			"hedges_sent": st.HedgesSent, "quorum_fails": st.QuorumFails,
			"write_fails": st.WriteFails, "repairs": st.Repairs,
			"hints_stored": st.HintsStored, "hints_pending": uint64(st.HintsPending),
		} {
			if v == 0 {
				t.Fatalf("node %d: %s = 0 before shutdown", i, name)
			}
		}
	}
	coords[0].Close()
	coords[1].Crash()
	for i, coord := range coords {
		after := coord.StatsSnapshot()
		b := before[i]
		if after.HedgesSent != b.HedgesSent || after.QuorumFails != b.QuorumFails ||
			after.WriteFails != b.WriteFails || after.Repairs != b.Repairs ||
			after.HintsStored != b.HintsStored || after.HintsPending != b.HintsPending {
			t.Fatalf("node %d: snapshot after shutdown %+v, before %+v", i, after, b)
		}
	}
}

func TestStartNodeBadID(t *testing.T) {
	if _, err := StartNode(5, []string{"127.0.0.1:0"}, Config{}); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
}

func TestClientDialNoAddrs(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatal("empty address list accepted")
	}
}
