package kvstore

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"c3/internal/core"
	"c3/internal/wire"
)

// settleOutstanding polls until the selector accounting from n toward every
// peer in the cluster has returned to zero — the invariant that every
// PickBatch/PickNextN/PickHedgeN/OnSendN is balanced by exactly one
// OnResponseN/OnAbandonN even across failures. Legs that land after their read answered (probes among
// them) may still be resolving when the foreground traffic stops, hence the
// deadline.
func settleOutstanding(t *testing.T, nodes []*Node, peers int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		total := 0.0
		for _, n := range nodes {
			if n == nil {
				continue
			}
			for p := 0; p < peers; p++ {
				total += n.OutstandingToward(p)
			}
		}
		if total == 0 {
			return
		}
		if time.Now().After(end) {
			for _, n := range nodes {
				if n == nil {
					continue
				}
				for p := 0; p < peers; p++ {
					if v := n.OutstandingToward(p); v != 0 {
						t.Errorf("node %d -> peer %d: outstanding = %v, want 0", n.ID(), p, v)
					}
				}
			}
			t.Fatalf("outstanding accounting leaked: total %v after %v", total, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// keyWithGroupExcluding finds a key whose replica group does not contain
// node `out` (requires nodes > RF).
func keyWithGroupExcluding(t *testing.T, n *Node, out core.ServerID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("excl-%d", i)
		group := n.readRing().ReplicasFor([]byte(key), nil)
		hit := false
		for _, s := range group {
			if s == out {
				hit = true
				break
			}
		}
		if !hit {
			return key
		}
	}
	t.Fatal("no key found excluding the node")
	return ""
}

// keyWithGroupIncluding finds a key whose replica group contains node `in`.
func keyWithGroupIncluding(t *testing.T, n *Node, in core.ServerID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("incl-%d", i)
		for _, s := range n.readRing().ReplicasFor([]byte(key), nil) {
			if s == in {
				return key
			}
		}
	}
	t.Fatal("no key found including the node")
	return ""
}

// TestWriteFailsWhenAllReplicasDown: the regression for the ack-on-failure
// bug — a write whose entire replica group is unreachable must surface an
// error, never a silent ack built from a zero-value failure report.
func TestWriteFailsWhenAllReplicasDown(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 21})
	coordinator := c.Nodes[0]
	key := keyWithGroupExcluding(t, coordinator, 0)
	// Kill every node but the coordinator: the key's whole replica group is
	// now down, while the coordinator itself stays up to report the failure.
	for i := 1; i < 5; i++ {
		c.Nodes[i].Close()
	}
	cl, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	err = cl.Put(key, []byte("v"))
	if err == nil {
		t.Fatal("all-replicas-down write was acknowledged")
	}
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("Put error = %v, want ErrWriteFailed", err)
	}
	if coordinator.StatsSnapshot().WriteFails == 0 {
		t.Fatal("coordinator did not count the failed write")
	}
}

// TestWriteAcksOnFirstGenuineSuccess: with part of the replica group down,
// a write must still be acknowledged — by a replica that actually applied
// it — and the value must be durably readable.
func TestWriteAcksOnFirstGenuineSuccess(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 22})
	coordinator := c.Nodes[0]
	key := keyWithGroupIncluding(t, coordinator, 0)
	// Kill the other members of the key's group (and leave unrelated nodes
	// up so the cluster keeps running).
	group := coordinator.readRing().ReplicasFor([]byte(key), nil)
	for _, s := range group {
		if s != 0 {
			c.Nodes[int(s)].Close()
		}
	}
	cl, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Put(key, []byte("v")); err != nil {
		t.Fatalf("write with one live replica failed: %v", err)
	}
	val, ok, err := cl.Get(key)
	if err != nil || !ok || string(val) != "v" {
		t.Fatalf("Get = %q,%v,%v after partial-failure write", val, ok, err)
	}
}

// TestRepairProbeAccountingSurvivesCrash is the read-repair leak regression:
// kill a node mid-repair-traffic and the coordinator's outstanding count
// toward it must return to zero (failed probes OnAbandon instead of leaking),
// so q̂ recovers once the node comes back instead of staying inflated
// forever.
func TestRepairProbeAccountingSurvivesCrash(t *testing.T) {
	cfg := Config{Seed: 23, ReadRepair: 1} // every read probes all replicas
	c, _ := startTestCluster(t, 3, cfg)
	addrs := c.Addrs()
	coordinator := c.Nodes[0]
	cl, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	warm := func(rounds int) {
		for i := 0; i < rounds; i++ {
			cl.Get(fmt.Sprintf("k%d", i%10))
		}
	}
	warm(100)

	// Kill node 2 mid-traffic: every subsequent read's repair probe toward
	// it fails.
	c.Nodes[2].Close()
	warm(150)
	settleOutstanding(t, c.Nodes[:2], 3, 3*time.Second)

	// The node comes back: with accounting clean, fresh probe feedback must
	// pull q̂ back down so selection can resume.
	n2, err := StartNode(2, addrs, cfg)
	if err != nil {
		t.Fatalf("restart node 2: %v", err)
	}
	t.Cleanup(n2.Close)
	c.Nodes[2] = nil // the cluster cleanup must not double-close the old node

	// Worst shard governs: every shard selector that sent traffic toward the
	// restarted node must pull its estimate back down.
	qhat := func() (q float64) {
		coordinator.sels.Each(func(c *core.Client) {
			c.Inspect(func(r core.Ranker) {
				if e := r.(*core.CubicRanker).Signals(core.ServerID(2)).QHat; e > q {
					q = e
				}
			})
		})
		return q
	}
	end := time.Now().Add(5 * time.Second)
	for {
		warm(50)
		if qhat() < 10 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("q̂ toward the restarted node stuck at %v", qhat())
		}
	}
	if served := n2.ReadsServed(); served == 0 {
		t.Fatal("restarted node never served a read")
	}
}

// TestRepairProbeFailuresAreNotQuorumFailures: with two of three replicas
// down, CL=ONE reads still answer from the coordinator's own replica while
// their background probes toward the dead ones fail. A probe is best-effort
// and never had a level to meet, so quorum_fails must not move, and the
// failed probes leave no outstanding accounting behind.
func TestRepairProbeFailuresAreNotQuorumFailures(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 25, ReadRepair: 1})
	keys := ladderKeys("probe", 10)
	putAll(t, cl, keys, "v-")
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	c.Nodes[1].Close()
	c.Nodes[2].Close()
	before := coord.StatsSnapshot().QuorumFails
	for i := 0; i < 50; i++ {
		k := keys[i%len(keys)]
		if v, ok, err := pinned.Get(k); err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("Get(%s) = %q,%v,%v with one live replica", k, v, ok, err)
		}
	}
	settleOutstanding(t, c.Nodes[:1], 3, 5*time.Second)
	if d := coord.StatsSnapshot().QuorumFails - before; d != 0 {
		t.Fatalf("failed background probes counted %d quorum failures", d)
	}
}

// TestProbeHealsCoordinatorsOwnReplica: a coordinator's own replica is
// probed like any other. Node 0 drops a write made at ALL; round-robin ONE
// GETs through node 0 read its own replica only some of the time, and the
// reads that go elsewhere probe it and write the value back.
func TestProbeHealsCoordinatorsOwnReplica(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 36, Strategy: StratRR, ReadRepair: 1})
	coord := c.Nodes[0]
	coord.SetDropWrites(true)
	cl.PutAt("own", []byte("v"), All) // misses ALL: node 0 refuses it
	coord.SetDropWrites(false)
	if _, _, ok := coord.Store().GetVersioned(nil, "own"); ok {
		t.Fatal("node 0 holds the key it was made to drop")
	}
	pinned := pinnedClient(t, coord)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, _, err := pinned.Get("own"); err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v, _, ok := coord.Store().GetVersioned(nil, "own"); ok && string(v) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ONE GETs through node 0 never repaired its own replica")
		}
		time.Sleep(time.Millisecond)
	}
	settleOutstanding(t, c.Nodes, 3, 3*time.Second)
}

// TestLateProbeStillRepairs: a probe that lands after its read answered is
// checked when it settles. Node 2 dropped a write and answers 100 ms late;
// every ONE GET answers long before that, and node 2 is healed anyway, with
// no accounting left behind.
func TestLateProbeStillRepairs(t *testing.T) {
	const slow = 100 * time.Millisecond
	cfg := Config{Seed: 37, ReadRepair: 1}
	cfg.Hedge.MaxDelay = 5 * time.Millisecond // a read sent to node 2 is hedged long before it answers
	c, cl := startTestCluster(t, 3, cfg)
	c.Nodes[2].SetDropWrites(true)
	cl.PutAt("late", []byte("v"), All) // misses ALL: node 2 refuses it
	c.Nodes[2].SetDropWrites(false)
	c.Nodes[2].SetSlowdown(slow)
	defer c.Nodes[2].SetSlowdown(0)
	coord := c.Nodes[0]
	pinned := pinnedClient(t, coord)
	before := coord.StatsSnapshot().Repairs
	deadline := time.Now().Add(5 * time.Second)
	for {
		t0 := time.Now()
		v, ok, err := pinned.Get("late")
		if d := time.Since(t0); d >= slow/2 {
			t.Fatalf("Get took %v: the read waited on node 2", d)
		}
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("Get = %q,%v,%v", v, ok, err)
		}
		if v, _, ok := c.Nodes[2].Store().GetVersioned(nil, "late"); ok && string(v) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a probe answering after its read never repaired node 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if coord.StatsSnapshot().Repairs == before {
		t.Fatal("node 2 was healed, but not by the coordinator's read repair")
	}
	settleOutstanding(t, c.Nodes, 3, 3*time.Second)
}

// TestClientDigestFlagIgnored: the digest bit is for replica-internal reads.
// A client MsgRead carrying it still gets the value, whichever leg of the
// coordinator's ladder answers — the primary, a hedge or a failover.
func TestClientDigestFlagIgnored(t *testing.T) {
	cfg := Config{Seed: 26, ReadRepair: -1}
	cfg.Hedge.MinDelay, cfg.Hedge.MaxDelay = time.Microsecond, time.Microsecond // hedge at once
	c, cl := startTestCluster(t, 3, cfg)
	keys := ladderKeys("flag", 8)
	putAll(t, cl, keys, "v-")
	coord := c.Nodes[0]
	coord.SetSlowdown(time.Millisecond) // no inline local read: every read races hedges
	defer coord.SetSlowdown(0)
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newRPCConn(conn)
	defer p.close()
	for i := 0; i < 50; i++ {
		k := keys[i%len(keys)]
		resp, err := p.readTyped(wire.MsgRead, wire.ReadReq{CL: wire.LevelOne, Digest: true, Key: k}, nil)
		if err != nil || !resp.Found || string(resp.Value) != "v-"+k {
			t.Fatalf("digest-flagged client read of %s = %q,%v,%v, want its value", k, resp.Value, resp.Found, err)
		}
	}
	if coord.StatsSnapshot().HedgesSent == 0 {
		t.Fatal("no hedge fired: the racing legs went unexercised")
	}
}

// TestCrashedNodeClusterAvailability: crash one node of five under live
// read/write traffic — every operation must still succeed (hedges and
// failovers route around the crash), and afterwards no node's selector may
// hold leaked outstanding accounting toward any peer.
func TestCrashedNodeClusterAvailability(t *testing.T) {
	c, cl := startTestCluster(t, 5, Config{Seed: 24})
	for i := 0; i < 30; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the write fan-out land everywhere
	const crashed = 4
	c.Nodes[crashed].Close()

	// The external client must not route through the dead coordinator.
	live := append([]string(nil), c.Addrs()[:crashed]...)
	cl2, err := Dial(live)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl2.Close)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i%30)
		val, ok, err := cl2.Get(key)
		if err != nil {
			t.Fatalf("Get(%s) after crash: %v", key, err)
		}
		if !ok || string(val) != "v" {
			t.Fatalf("Get(%s) = %q,%v: crash cost availability", key, val, ok)
		}
		if i%10 == 0 {
			if err := cl2.Put(key, []byte("v")); err != nil {
				t.Fatalf("Put(%s) after crash: %v", key, err)
			}
		}
	}
	settleOutstanding(t, c.Nodes[:crashed], 5, 3*time.Second)
}

// TestDeadPeerDialDoesNotStallHealthyReads: a hung connection attempt to one
// peer (simulated by holding that peer's dial slot, exactly what a dial into
// a blackholed network does for up to peerDialTimeout) must not block reads
// that route to healthy replicas — the regression for the global dial lock.
// Reads that do pick the wedged peer are rescued by their hedge.
func TestDeadPeerDialDoesNotStallHealthyReads(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 25})
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm selectors and the RTT estimate
		cl.Get(fmt.Sprintf("k%d", i%10))
	}
	coordinator := c.Nodes[0]
	// Wedge the dial slot toward peer 2 and sever the cached connection, as
	// a dial hanging inside DialTimeout would.
	slot := coordinator.peerSlotFor(2)
	slot.mu.Lock()
	if slot.conn != nil {
		slot.conn.close()
	}
	pinned, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		slot.mu.Unlock()
		t.Fatal(err)
	}
	t.Cleanup(pinned.Close)
	start := time.Now()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i%10)
		if _, ok, err := pinned.Get(key); err != nil || !ok {
			slot.mu.Unlock()
			t.Fatalf("Get(%s) with a wedged peer dial = %v,%v", key, ok, err)
		}
	}
	elapsed := time.Since(start)
	slot.mu.Unlock()
	// 100 loopback reads take single-digit milliseconds; the old global
	// dial lock would serialize them all behind the 1s dial timeout.
	if elapsed > 800*time.Millisecond {
		t.Fatalf("100 reads took %v while one peer's dial was wedged", elapsed)
	}
}

// TestPeerDialFailFast: after a dial failure, requests toward that peer fail
// immediately for the backoff window instead of queueing another dial.
func TestPeerDialFailFast(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 26})
	coordinator := c.Nodes[0]
	c.Nodes[2].Close()
	if _, err := coordinator.peer(2); err == nil {
		t.Fatal("dial to a closed node succeeded")
	}
	start := time.Now()
	if _, err := coordinator.peer(2); err == nil {
		t.Fatal("second dial to a closed node succeeded")
	} else if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("second dial attempt took %v, want fail-fast within the backoff window", d)
	}
}

// TestHedgedReadCutsTailUnderSlowReplica: the tail-tolerance headline. Under
// the uniform-random strategy (which keeps sending a third of the reads to
// the degraded replica — no C3 steering to confound the measurement), a
// 50 ms slowdown must not surface in read latency when hedging is on, and
// must surface when it is off.
func TestHedgedReadCutsTailUnderSlowReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of injected slowness; the dedicated race step runs it in full")
	}
	run := func(disabled bool) (maxLatency time.Duration, hedges, wins uint64) {
		cfg := Config{Seed: 27, Strategy: StratRND}
		if disabled { // a delay no read lives to see: the hedge never fires
			cfg.Hedge.MinDelay, cfg.Hedge.MaxDelay = time.Hour, time.Hour
		}
		c, _ := startTestCluster(t, 3, cfg)
		defer c.Close()
		cl, err := Dial([]string{c.Nodes[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 10; i++ {
			if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ { // warm the RTT estimate with healthy reads
			cl.Get(fmt.Sprintf("k%d", i%10))
		}
		c.Nodes[2].SetSlowdown(50 * time.Millisecond)
		for i := 0; i < 90; i++ {
			t0 := time.Now()
			if _, ok, err := cl.Get(fmt.Sprintf("k%d", i%10)); err != nil || !ok {
				t.Fatalf("Get = %v,%v", ok, err)
			}
			if d := time.Since(t0); d > maxLatency {
				maxLatency = d
			}
		}
		st := c.Nodes[0].StatsSnapshot()
		return maxLatency, st.HedgesSent, st.HedgeWins
	}

	hedgedMax, hedges, wins := run(false)
	if hedgedMax >= 25*time.Millisecond {
		t.Errorf("hedged max read latency %v, want well under the 50ms slowdown", hedgedMax)
	}
	if hedges == 0 || wins == 0 {
		t.Errorf("hedges=%d wins=%d, want both > 0 under a slow replica", hedges, wins)
	}
	unhedgedMax, hedges, _ := run(true)
	if hedges != 0 {
		t.Errorf("disabled hedging still issued %d hedges", hedges)
	}
	if unhedgedMax < 40*time.Millisecond {
		t.Errorf("unhedged max read latency %v: the slowdown never surfaced, control is broken", unhedgedMax)
	}
}

// TestFlappingNodeConvergesBack: a replica that oscillates between degraded
// and healthy must be re-selected once it stabilizes — the hedge and repair
// probes keep observing it, and clean accounting means nothing pins the old
// penalty in place.
func TestFlappingNodeConvergesBack(t *testing.T) {
	cfg := Config{Seed: 28, ReadRepair: 0.2}
	c, cl := startTestCluster(t, 3, cfg)
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := Dial([]string{c.Nodes[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pinned.Close)
	warm := func(rounds int) {
		for i := 0; i < rounds; i++ {
			pinned.Get(fmt.Sprintf("k%d", i%10))
		}
	}
	warm(200)
	// Flap: three degrade/recover cycles.
	for cycle := 0; cycle < 3; cycle++ {
		c.Nodes[2].SetSlowdown(30 * time.Millisecond)
		warm(60)
		c.Nodes[2].SetSlowdown(0)
		warm(60)
	}
	// Stabilized: node 2 must pull a meaningful share of served reads again.
	before := c.Nodes[2].ReadsServed()
	end := time.Now().Add(5 * time.Second)
	for {
		warm(100)
		if c.Nodes[2].ReadsServed()-before >= 20 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("flapped node served only %d reads after recovering",
				c.Nodes[2].ReadsServed()-before)
		}
	}
	settleOutstanding(t, c.Nodes, 3, 3*time.Second)
}
