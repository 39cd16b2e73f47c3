package kvstore

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/wire"
)

// waitForEpoch polls until every node has adopted at least epoch e.
func waitForEpoch(t *testing.T, nodes []*Node, e uint64, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		behind := -1
		for i, n := range nodes {
			if n != nil && n.Epoch() < e {
				behind = i
				break
			}
		}
		if behind < 0 {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("node %d stuck at epoch %d, want ≥ %d", behind, nodes[behind].Epoch(), e)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loadKeys writes count distinct keys through the client and waits until
// every one is readable (CL=ONE convergence), returning them.
func loadKeys(t *testing.T, cl *Client, prefix string, count int) []string {
	t.Helper()
	keys := make([]string, count)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%05d", prefix, i)
		if err := cl.Put(keys[i], []byte("val-"+keys[i])); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	for _, k := range keys {
		for attempt := 0; ; attempt++ {
			if _, ok, err := cl.Get(k); err == nil && ok {
				break
			} else if attempt > 300 {
				t.Fatalf("key %q never became readable: %v", k, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return keys
}

// assertAllReadable fails on the first loaded key a MultiGet cannot find.
func assertAllReadable(t *testing.T, cl *Client, keys []string, when string) {
	t.Helper()
	vals, found, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("%s: MultiGet: %v", when, err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("%s: acked key %q lost", when, keys[i])
		}
		if string(vals[i]) != "val-"+keys[i] {
			t.Fatalf("%s: key %q has wrong value %q", when, keys[i], vals[i])
		}
	}
}

// TestLiveJoinStreamsAndServes grows a loaded 4-node cluster by one: the
// joiner must receive the transition topology, stream its owed ranges, cut
// the cluster over to the new stable epoch, keep every acked write readable,
// and start both serving reads and coordinating traffic.
func TestLiveJoinStreamsAndServes(t *testing.T) {
	c, cl := startTestCluster(t, 4, Config{Seed: 61})
	keys := loadKeys(t, cl, "join", 400)

	joined, err := c.Join(Config{Seed: 62})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if joined.ID() != 4 {
		t.Fatalf("joiner id = %d, want 4", joined.ID())
	}
	// Boot epoch 0 → transition 1 → stable 2, adopted everywhere.
	waitForEpoch(t, c.Nodes, 2, 5*time.Second)
	for _, n := range c.Nodes {
		if n.InTransition() {
			t.Fatalf("node %d still in a dual-route window after activation", n.ID())
		}
		if got := len(n.Members()); got != 5 {
			t.Fatalf("node %d sees %d members, want 5", n.ID(), got)
		}
	}
	assertAllReadable(t, cl, keys, "after join")

	// The joiner must hold every key of the ranges it took over — reads on
	// the new ring route to it with no dual-route safety net left.
	owed := 0
	for _, k := range keys {
		group := joined.readRing().ReplicasFor([]byte(k), nil)
		for _, s := range group {
			if s == joined.id {
				owed++
				if !joined.store.Has(k) {
					t.Fatalf("joiner owns %q but never streamed it", k)
				}
			}
		}
	}
	if owed == 0 {
		t.Fatal("join moved no ranges at all")
	}

	// Traffic after the cutover reaches the joiner's storage.
	for i := 0; i < 2000 && joined.ReadsServed() == 0; i++ {
		if _, _, err := cl.Get(keys[i%len(keys)]); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if joined.ReadsServed() == 0 {
		t.Fatal("joiner never served a read after activation")
	}
	settleOutstanding(t, c.Nodes, 5, 3*time.Second)
}

// TestDecommissionRehomesData shrinks a loaded cluster: the leaver streams
// its arcs to the gainers, announces the stable successor epoch, and every
// acked write stays readable once reads cut over to the smaller ring.
func TestDecommissionRehomesData(t *testing.T) {
	c, cl := startTestCluster(t, 5, Config{Seed: 63})
	keys := loadKeys(t, cl, "leave", 400)

	leaver := c.Nodes[4]
	if err := leaver.Decommission(); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	waitForEpoch(t, c.Nodes[:4], 2, 5*time.Second)
	for _, n := range c.Nodes[:4] {
		if got := len(n.Members()); got != 4 {
			t.Fatalf("node %d sees %d members, want 4", n.ID(), got)
		}
		for _, m := range n.Members() {
			if m == leaver.id {
				t.Fatalf("node %d still lists the leaver as a member", n.ID())
			}
		}
	}
	// The leaver no longer receives reads; the data must be whole without it.
	leaver.Close()
	c.Nodes[4] = nil
	assertAllReadable(t, cl, keys, "after decommission")
	settleOutstanding(t, c.Nodes[:4], 5, 3*time.Second)
}

// TestJoinThenDecommissionSameNode pushes a node through its full lifecycle:
// join a live cluster, take traffic, then leave it — the elastic round trip
// the bench drives under load.
func TestJoinThenDecommissionSameNode(t *testing.T) {
	c, cl := startTestCluster(t, 4, Config{Seed: 64})
	keys := loadKeys(t, cl, "cycle", 300)

	joined, err := c.Join(Config{Seed: 65})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	waitForEpoch(t, c.Nodes, 2, 5*time.Second)
	assertAllReadable(t, cl, keys, "after join")

	if err := joined.Decommission(); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	waitForEpoch(t, c.Nodes[:4], 4, 5*time.Second)
	joined.Close()
	c.Nodes = c.Nodes[:4]
	assertAllReadable(t, cl, keys, "after decommission")
	settleOutstanding(t, c.Nodes, 5, 3*time.Second)
}

// TestJoinRefusedMidTransition: a member occupied by one membership change
// must refuse to admit another (the protocol serializes transitions).
func TestJoinRefusedMidTransition(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 66})
	n := c.Nodes[0]
	// Force an open window by hand: install a join transition without an
	// activation.
	cur := n.topo.Load()
	nv, err := cur.v.AddNode(99)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 100)
	copy(addrs, cur.addrs)
	addrs[99] = "127.0.0.1:1"
	u := buildUpdate(nv.Epoch(), wire.PhaseJoin, 99, nv, addrs)
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		t.Fatal(err)
	}
	n.memberMu.Lock()
	n.installTopology(nt)
	n.memberMu.Unlock()
	if _, err := JoinCluster(n.Addr(), "127.0.0.1:0", Config{Seed: 67}); err == nil {
		t.Fatal("join admitted during an open transition window")
	}
}

// TestAbortedJoinUnblocksMembership: a join whose catch-up streaming fails
// must roll the fleet back to the pre-join ring at a fresh stable epoch —
// otherwise the transition window (and the dual-route write fan toward the
// dead joiner) would wedge every future membership change. The failure is
// staged through the real admission path: the seed installs and broadcasts
// the PhaseJoin window, the joiner node comes up, and then — standing in
// for a catch-up error — aborts instead of activating.
func TestAbortedJoinUnblocksMembership(t *testing.T) {
	c, _ := startTestCluster(t, 4, Config{Seed: 71})
	seed := c.Nodes[0]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u, err := seed.admitJoiner(ln.Addr().String())
	if err != nil {
		ln.Close()
		t.Fatalf("admitJoiner: %v", err)
	}
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	joiner, err := newNode(core.ServerID(u.Subject), nt, ln, Config{Seed: 72}.withDefaults())
	if err != nil {
		t.Fatalf("newNode: %v", err)
	}
	for _, n := range c.Nodes {
		if !n.InTransition() {
			t.Fatalf("node %d not in the join window after admission", n.ID())
		}
	}

	joiner.abortJoin()
	joiner.Close()
	waitForEpoch(t, c.Nodes, 2, 3*time.Second)
	for _, n := range c.Nodes {
		if n.InTransition() {
			t.Fatalf("node %d still wedged after the join aborted", n.ID())
		}
		if got := len(n.Members()); got != 4 {
			t.Fatalf("node %d sees %d members after abort, want the pre-join 4", n.ID(), got)
		}
	}
	// Membership must be admissible again: a fresh join succeeds end to end.
	if _, err := c.Join(Config{Seed: 73}); err != nil {
		t.Fatalf("join after abort: %v", err)
	}
}

// TestJoinWindowBatchWriteReachesOnlyOwners: inside a join's dual-route
// window a batch write fans each key to its owners on either ring and to no
// one else. The joiner's token splits one arc of the previous ring; keys from
// the half it does not take must not land on it — its ack would count toward
// those keys' W while no quorum read could ever see the copy, so a QUORUM
// key could be acked by one real owner. The window is opened through the
// real admission path, as in TestAbortedJoinUnblocksMembership, and left
// open while the batch is written.
func TestJoinWindowBatchWriteReachesOnlyOwners(t *testing.T) {
	c, _ := startTestCluster(t, 4, Config{Seed: 74})
	seed := c.Nodes[0]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u, err := seed.admitJoiner(ln.Addr().String())
	if err != nil {
		ln.Close()
		t.Fatalf("admitJoiner: %v", err)
	}
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	joiner, err := newNode(core.ServerID(u.Subject), nt, ln, Config{Seed: 75}.withDefaults())
	if err != nil {
		t.Fatalf("newNode: %v", err)
	}
	t.Cleanup(joiner.Close)
	if !seed.InTransition() {
		t.Fatal("seed not in the join window after admission")
	}

	cl, err := Dial([]string{seed.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	keys, vals := batchKeysVals("window", 64)
	oks, err := cl.MultiPutAt(keys, vals, Quorum)
	if err != nil {
		t.Fatalf("MultiPutAt: %v", err)
	}
	target := nt.v.Ring()
	var owned, foreign []string
	for i, k := range keys {
		if !oks[i] {
			t.Fatalf("key %q not acked at QUORUM", k)
		}
		if slices.Contains(target.ReplicasFor([]byte(k), nil), joiner.id) {
			owned = append(owned, k)
		} else {
			foreign = append(foreign, k)
		}
	}
	if len(owned) == 0 {
		t.Fatal("the joiner owns none of the batch's keys on the target ring")
	}
	// The joiner's own keys reach it — the fan covers the target ring — and
	// once they have, so would anything sent to it alongside them.
	waitFor(t, 5*time.Second, "the joiner's keys to land on it", func() bool {
		for _, k := range owned {
			if !joiner.store.Has(k) {
				return false
			}
		}
		return true
	})
	for _, k := range foreign {
		if joiner.store.Has(k) {
			t.Fatalf("joiner holds %q, which it owns on neither ring", k)
		}
	}
}

// TestStreamPushDoesNotClobberNewerValue: the decommission push path applies
// pages under the version guard — a pre-move value must never overwrite a
// newer dual-routed write already on the gainer.
func TestStreamPushDoesNotClobberNewerValue(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 73})
	target := c.Nodes[1]
	if err := target.store.ApplyMulti([]string{"hot"}, []uint64{20}, [][]byte{[]byte("new")}, nil); err != nil {
		t.Fatal(err)
	}

	p, err := c.Nodes[0].peer(target.id)
	if err != nil {
		t.Fatal(err)
	}
	// The page carries raw stored values: version prefix, then payload.
	oks, _, _, err := p.batchWrite(wire.MsgStreamPush, 0, 0, false, []string{"hot", "cold"},
		[][]byte{lsm.AppendVersioned(nil, 19, []byte("stale")), lsm.AppendVersioned(nil, 5, []byte("cold-v"))}, nil)
	if err != nil || len(oks) != 2 || !oks[0] || !oks[1] {
		t.Fatalf("stream push: oks=%v err=%v", oks, err)
	}
	if v, ver, _ := target.store.GetVersioned(nil, "hot"); string(v) != "new" || ver != 20 {
		t.Fatalf("stream push clobbered newer value: %q at %d", v, ver)
	}
	if v, ver, ok := target.store.GetVersioned(nil, "cold"); !ok || string(v) != "cold-v" || ver != 5 {
		t.Fatalf("stream push dropped an absent key: %q at %d ok=%v", v, ver, ok)
	}
}

// TestRingUpdateAdoptionIsMonotonic: a stale announcement must not roll a
// node back, and the ack carries the node's (newer) epoch.
func TestRingUpdateAdoptionIsMonotonic(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 68})
	n := c.Nodes[0]
	cur := n.topo.Load()
	stale := cur.update // epoch 0, already adopted
	if got := n.adoptUpdate(&stale); got != cur.epoch() {
		t.Fatalf("stale adoption changed epoch to %d", got)
	}
	if n.topo.Load() != cur {
		t.Fatal("stale announcement replaced the topology snapshot")
	}
}
