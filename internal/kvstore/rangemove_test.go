package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/core"
	"c3/internal/ring"
	"c3/internal/wire"
)

// Key-range moves: a join, a rebuild and a decommission all move arcs as
// MsgStreamPush pages cut at streamPageKeys keys or streamPageBytes bytes.
// These tests move arcs larger than one page, cut by key count and cut by
// bytes, and check that every owed key landed and no other key did.

// pagingCase is a data set whose arcs exceed one push page, by key count or
// by bytes.
type pagingCase struct {
	name   string
	keys   int
	valLen int
	batch  int // keys per MultiPutAt
	byKeys bool
}

var pagingCases = []pagingCase{
	{name: "keys", keys: 6000, valLen: 16, batch: 500, byKeys: true},
	{name: "bytes", keys: 400, valLen: 32 << 10, batch: 32},
}

// rangeVal is the deterministic value of key i of a case.
func rangeVal(i, n int) []byte {
	v := bytes.Repeat([]byte{byte(i)}, n)
	copy(v, fmt.Sprintf("v%d-", i))
	return v
}

// writeAtAll writes tc's keys at ALL, so every replica holds every key before
// a range moves, and returns them.
func writeAtAll(t *testing.T, cl *Client, prefix string, tc pagingCase) []string {
	t.Helper()
	keys := make([]string, tc.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%05d", prefix, i)
	}
	for lo := 0; lo < len(keys); lo += tc.batch {
		hi := min(lo+tc.batch, len(keys))
		vals := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			vals = append(vals, rangeVal(i, tc.valLen))
		}
		oks, err := cl.MultiPutAt(keys[lo:hi], vals, All)
		if err != nil || slices.Contains(oks, false) {
			t.Fatalf("MultiPutAt ALL: oks=%v err=%v", oks, err)
		}
	}
	return keys
}

// assertHoldsExactlyOwned checks that n holds, with its value, every key it
// replicates on r, and no other key.
func assertHoldsExactlyOwned(t *testing.T, n *Node, r *ring.Ring, keys []string, valLen int) {
	t.Helper()
	owned := 0
	for i, k := range keys {
		owns := slices.Contains(r.ReplicasFor([]byte(k), nil), n.id)
		v, _, has := n.store.GetVersioned(nil, k)
		switch {
		case owns && !has:
			t.Fatalf("node %d owns %q but never received it", n.id, k)
		case owns && !bytes.Equal(v, rangeVal(i, valLen)):
			t.Fatalf("node %d holds %q with a wrong value", n.id, k)
		case !owns && has:
			t.Fatalf("node %d holds %q, which it does not own", n.id, k)
		}
		if owns {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("the node owns no keys; the test is vacuous")
	}
}

// assertArcsNeedPages checks that some arc n replicates on r is larger than
// one push page the way tc says: by key count, or by bytes with no arc — not
// even n's whole key set — reaching the key cut. An arc is grouped by its
// primary owner (one token per node), a lower bound on a merged Diff run.
func assertArcsNeedPages(t *testing.T, n *Node, r *ring.Ring, keys []string, tc pagingCase) {
	t.Helper()
	perArc := map[core.ServerID]int{}
	owned := 0
	for _, k := range keys {
		group := r.ReplicasFor([]byte(k), nil)
		if slices.Contains(group, n.id) {
			perArc[group[0]]++
			owned++
		}
	}
	largest := 0
	for _, c := range perArc {
		largest = max(largest, c)
	}
	if tc.byKeys && largest <= streamPageKeys {
		t.Fatalf("largest arc has %d keys, want more than one %d-key page", largest, streamPageKeys)
	}
	if !tc.byKeys && (owned >= streamPageKeys || largest*(tc.valLen+len(keys[0])) <= streamPageBytes) {
		t.Fatalf("largest arc has %d keys of %d bytes (%d owned), want a byte cut below the key cut",
			largest, tc.valLen, owned)
	}
}

// TestJoinStreamsArcsLargerThanOnePage: a joiner's owed arcs arrive in full
// when each takes several push pages.
func TestJoinStreamsArcsLargerThanOnePage(t *testing.T) {
	for _, tc := range pagingCases {
		t.Run(tc.name, func(t *testing.T) {
			c, cl := startTestCluster(t, 4, Config{Seed: 82, ReadRepair: -1})
			keys := writeAtAll(t, cl, "jpage", tc)
			joined, err := c.Join(Config{Seed: 83, ReadRepair: -1})
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			waitForEpoch(t, c.Nodes, 2, 5*time.Second)
			r := joined.readRing()
			assertArcsNeedPages(t, joined, r, keys, tc)
			assertHoldsExactlyOwned(t, joined, r, keys, tc.valLen)
		})
	}
}

// startRebuildVictim loads tc into a 5-node cluster, then replaces node 4
// with an empty node over the same id and address — a node that lost its
// disk — and returns the cluster, the keys and the victim.
func startRebuildVictim(t *testing.T, tc pagingCase, seed uint64) (*Cluster, []string, *Node) {
	t.Helper()
	cfg := Config{Seed: seed, ReadRepair: -1}
	c, cl := startTestCluster(t, 5, cfg)
	keys := writeAtAll(t, cl, "rpage", tc)
	const victimID = 4
	addrs := c.Addrs()
	c.Nodes[victimID].Crash()
	n := restartNode(t, addrs, victimID, cfg)
	c.Nodes[victimID] = n
	if n.Store().Len() != 0 {
		t.Fatalf("replacement node started with %d keys", n.Store().Len())
	}
	return c, keys, n
}

// TestRebuildStreamsArcsLargerThanOnePage: RebuildFromPeers brings back every
// owned arc in full when each takes several push pages.
func TestRebuildStreamsArcsLargerThanOnePage(t *testing.T) {
	for _, tc := range pagingCases {
		t.Run(tc.name, func(t *testing.T) {
			_, keys, n := startRebuildVictim(t, tc, 84)
			r := n.readRing()
			assertArcsNeedPages(t, n, r, keys, tc)
			if err := n.RebuildFromPeers(); err != nil {
				t.Fatalf("RebuildFromPeers: %v", err)
			}
			assertHoldsExactlyOwned(t, n, r, keys, tc.valLen)
		})
	}
}

// firstRebuildOwner is the owner RebuildFromPeers asks first for n's first
// arc: the first replica other than n of the first token whose replica set
// includes n.
func firstRebuildOwner(t *testing.T, n *Node) core.ServerID {
	t.Helper()
	v := n.topo.Load().v
	for _, end := range v.Tokens() {
		owners := v.Ring().ReplicasForToken(end, nil)
		if !slices.Contains(owners, n.id) {
			continue
		}
		for _, o := range owners {
			if o != n.id {
				return o
			}
		}
	}
	t.Fatal("the node replicates no arc")
	return -1
}

// TestRebuildRotatesPastWrongEpochOwner: an owner on another epoch rejects
// the push request; the requester rotates to the next owner and finishes.
func TestRebuildRotatesPastWrongEpochOwner(t *testing.T) {
	tc := pagingCases[0]
	c, keys, n := startRebuildVictim(t, tc, 85)
	stale := c.Nodes[firstRebuildOwner(t, n)]
	u := stale.topo.Load().update
	u.Epoch++
	if got := stale.adoptUpdate(&u); got != n.Epoch()+1 {
		t.Fatalf("owner at epoch %d, want %d", got, n.Epoch()+1)
	}
	req := wire.StreamReq{Epoch: n.Epoch(), Start: 0, End: 1, To: int32(n.id)}
	if err := n.requestPush(stale.id, req); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("push request to an owner on another epoch: %v, want ErrWrongEpoch", err)
	}
	if err := n.RebuildFromPeers(); err != nil {
		t.Fatalf("RebuildFromPeers: %v", err)
	}
	assertHoldsExactlyOwned(t, n, n.readRing(), keys, tc.valLen)
}

// shortenStreamTimeouts sets the push stall wait and the retry budget for
// one test.
func shortenStreamTimeouts(t *testing.T, stall, budget time.Duration) {
	oldStall, oldBudget := pushStallWait, streamBudget
	pushStallWait, streamBudget = stall, budget
	t.Cleanup(func() { pushStallWait, streamBudget = oldStall, oldBudget })
}

// installLink replaces n's link to peer with a connection to a stand-in
// listening on a fresh port, and returns the stand-in's listener.
func installLink(t *testing.T, n *Node, peer core.ServerID) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	slot := n.peerSlotFor(peer)
	slot.mu.Lock()
	if slot.conn != nil {
		slot.conn.close()
	}
	slot.conn = newRPCConn(conn)
	slot.mu.Unlock()
	return ln
}

// standInOwner installs a stand-in as requester n's link to owner, serving
// the push requests n sends that owner from owner's store: serve runs for
// each MsgStreamReq with the link it came on. The stand-in stops when serve
// reports false, closing the link, or when n closes it; done closes then.
func standInOwner(t *testing.T, n *Node, owner core.ServerID, serve func(conn net.Conn, m wire.StreamReq) bool) (done <-chan struct{}) {
	t.Helper()
	ln := installLink(t, n, owner)
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := wire.NewReader(conn)
		for {
			typ, payload, err := r.Next()
			if err != nil {
				return
			}
			if typ != wire.MsgStreamReq {
				continue
			}
			m, err := wire.ParseStreamReq(payload)
			if err != nil || !serve(conn, m) {
				return
			}
		}
	}()
	return ch
}

// pushPages pushes the keys owner holds inside m's arc to n as marked pages
// of pageKeys keys, pausing between pages, and stops after maxPages pages
// (0: the whole arc). It reports the keys pushed and acked.
func pushPages(owner, n *Node, m wire.StreamReq, pageKeys, maxPages int, pause time.Duration) int {
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		return 0
	}
	p := newRPCConn(conn)
	defer p.close()
	arc := ring.Range{Start: m.Start, End: m.End}
	var page []string
	var vals [][]byte
	pushed, pages := 0, 0
	flush := func() bool {
		if pages > 0 {
			time.Sleep(pause)
		}
		oks, _, _, err := p.batchWrite(wire.MsgStreamPush, wire.LevelOne, wire.ArcPage, false, page, vals, nil)
		if err != nil || slices.Contains(oks, false) {
			return false
		}
		pushed, pages, page, vals = pushed+len(page), pages+1, page[:0], vals[:0]
		return maxPages == 0 || pages < maxPages
	}
	for _, k := range owner.store.AppendLiveKeys(nil) {
		if !arc.Contains(ring.Token([]byte(k))) {
			continue
		}
		v, _ := owner.store.Get(k)
		page, vals = append(page, k), append(vals, v)
		if len(page) == pageKeys && !flush() {
			return pushed
		}
	}
	if len(page) > 0 {
		flush()
	}
	return pushed
}

// answerPush sends the status reply of push request m on conn.
func answerPush(conn net.Conn, m wire.StreamReq, status uint8) bool {
	b, err := wire.AppendStreamChunk(nil, wire.StreamChunk{ID: m.ID, Status: status, Epoch: m.Epoch})
	if err != nil {
		return false
	}
	_, err = conn.Write(b)
	return err == nil
}

// TestRebuildRotatesPastOwnerClosingMidArc: the first owner asked pushes one
// page of the arc and then closes its connection without answering; the
// requester rotates to the next owner, which pushes the arc again, and
// finishes.
func TestRebuildRotatesPastOwnerClosingMidArc(t *testing.T) {
	tc := pagingCases[0]
	c, keys, n := startRebuildVictim(t, tc, 86)
	owner := c.Nodes[firstRebuildOwner(t, n)]
	var pushed atomic.Int64
	done := standInOwner(t, n, owner.id, func(_ net.Conn, m wire.StreamReq) bool {
		pushed.Store(int64(pushPages(owner, n, m, streamPageKeys, 1, 0)))
		return false // mid-arc: no reply, connection gone
	})
	if err := n.RebuildFromPeers(); err != nil {
		t.Fatalf("RebuildFromPeers: %v", err)
	}
	<-done
	if pushed.Load() != streamPageKeys {
		t.Fatalf("the failing owner pushed %d keys before closing, want one full page of %d",
			pushed.Load(), streamPageKeys)
	}
	assertHoldsExactlyOwned(t, n, n.readRing(), keys, tc.valLen)
}

// TestRebuildRotatesPastStalledOwner: the first owner asked pushes one page
// and then stalls, its connection open and no reply sent; the requester
// rotates to the next owner once no page has landed for pushStallWait, and
// finishes.
func TestRebuildRotatesPastStalledOwner(t *testing.T) {
	tc := pagingCases[0]
	c, keys, n := startRebuildVictim(t, tc, 88)
	owner := c.Nodes[firstRebuildOwner(t, n)]
	shortenStreamTimeouts(t, 300*time.Millisecond, streamBudget)
	var stalls atomic.Int64
	standInOwner(t, n, owner.id, func(_ net.Conn, m wire.StreamReq) bool {
		if pushPages(owner, n, m, 64, 1, 0) > 0 {
			stalls.Add(1)
		}
		return true // never answer, keep the link open
	})
	if err := n.RebuildFromPeers(); err != nil {
		t.Fatalf("RebuildFromPeers: %v", err)
	}
	if stalls.Load() == 0 {
		t.Fatal("the stalled owner pushed no page; the test is vacuous")
	}
	assertHoldsExactlyOwned(t, n, n.readRing(), keys, tc.valLen)
}

// TestRebuildWaitsOutSlowOwner: a push that takes longer than both the
// stall wait and the retry budget, but lands a page within every stall wait,
// is waited out: the budget bounds retries, not a push in progress.
func TestRebuildWaitsOutSlowOwner(t *testing.T) {
	tc := pagingCases[0]
	c, keys, n := startRebuildVictim(t, tc, 89)
	owner := c.Nodes[firstRebuildOwner(t, n)]
	const stall, pause = 400 * time.Millisecond, 40 * time.Millisecond
	shortenStreamTimeouts(t, stall, time.Millisecond)
	var slow atomic.Int64
	standInOwner(t, n, owner.id, func(conn net.Conn, m wire.StreamReq) bool {
		start := time.Now()
		pushPages(owner, n, m, 32, 0, pause)
		if time.Since(start) > 2*stall {
			slow.Add(1)
		}
		return answerPush(conn, m, wire.StreamOK)
	})
	if err := n.RebuildFromPeers(); err != nil {
		t.Fatalf("RebuildFromPeers: %v", err)
	}
	if slow.Load() == 0 {
		t.Fatalf("no push took longer than %v; the test is vacuous", 2*stall)
	}
	assertHoldsExactlyOwned(t, n, n.readRing(), keys, tc.valLen)
}

// TestStreamReqToUnknownNodeRefused: a push request naming a node the
// owner's topology has no address for is refused before the owner sets up
// any link state for it.
func TestStreamReqToUnknownNodeRefused(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 90})
	owner := c.Nodes[0]
	p, err := c.Nodes[1].peer(owner.id)
	if err != nil {
		t.Fatal(err)
	}
	slots := func() int {
		owner.peersMu.RLock()
		defer owner.peersMu.RUnlock()
		return len(owner.peers)
	}
	before := slots()
	req := wire.StreamReq{Epoch: owner.Epoch(), Start: 0, End: 1, To: 1 << 20}
	r, err := p.streamReq(req, time.Second, nil)
	if err != nil || r.Status != wire.StreamPushFailed {
		t.Fatalf("push to an unknown node: status %d, err %v; want StreamPushFailed", r.Status, err)
	}
	if after := slots(); after != before {
		t.Fatalf("owner grew its peer table from %d to %d slots", before, after)
	}
}

// firstGainer is a node that gains an arc when leaver leaves.
func firstGainer(t *testing.T, leaver *Node) core.ServerID {
	t.Helper()
	cur := leaver.topo.Load().v
	next, err := cur.RemoveNode(leaver.id)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cur.Diff(next) {
		if !slices.Contains(c.Old, leaver.id) {
			continue
		}
		for _, s := range c.New {
			if !slices.Contains(c.Old, s) {
				return s
			}
		}
	}
	t.Fatal("the leave moves no arc")
	return -1
}

// TestDecommissionRepushesAfterLinkFailure: the leaver's link to a gainer
// drops the first push page and closes; the leaver pushes the arc again over
// a fresh link, so every new-ring replica ends up with every key it owns.
func TestDecommissionRepushesAfterLinkFailure(t *testing.T) {
	c, cl := startTestCluster(t, 5, Config{Seed: 91, ReadRepair: -1})
	tc := pagingCase{name: "small", keys: 400, valLen: 16, batch: 100}
	keys := writeAtAll(t, cl, "dlink", tc)
	leaver := c.Nodes[4]
	gainer := c.Nodes[firstGainer(t, leaver)]
	ln := installLink(t, leaver, gainer.id)
	var dropped atomic.Bool
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		up, err := net.Dial("tcp", gainer.Addr())
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(conn, up) // the gainer's replies
		r := wire.NewReader(conn)
		for {
			typ, payload, err := r.Next()
			if err != nil {
				return
			}
			if typ == wire.MsgStreamPush {
				dropped.Store(true)
				return // the page is lost with the link
			}
			frame := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
			if _, err := up.Write(append(append(frame, typ), payload...)); err != nil {
				return
			}
		}
	}()
	if err := leaver.Decommission(); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	rest := c.Nodes[:4]
	waitForEpoch(t, rest, 2, 5*time.Second)
	if !dropped.Load() {
		t.Fatal("the link dropped no push page; the test is vacuous")
	}
	r := rest[0].readRing()
	for _, n := range rest {
		assertHoldsExactlyOwned(t, n, r, keys, tc.valLen)
	}
}

// TestDecommissionLargeValuesRehomesEveryCopy: a leaver's arcs of 1 MiB
// values reach every gainer. A 512-key page of such values overflows the
// 16 MiB frame limit, so pages must be cut by bytes too; a page that cannot
// be framed used to be skipped silently, leaving copies missing.
func TestDecommissionLargeValuesRehomesEveryCopy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("holds ~400 MiB of replica copies: too heavy for -short and the race detector")
	}
	c, cl := startTestCluster(t, 5, Config{Seed: 87, ReadRepair: -1})
	const nKeys, valLen = 120, 1 << 20
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("big-%03d", i)
		if err := cl.PutAt(keys[i], rangeVal(i, valLen), All); err != nil {
			t.Fatalf("PutAt ALL %s: %v", keys[i], err)
		}
	}
	leaver := c.Nodes[4]
	if err := leaver.Decommission(); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	rest := c.Nodes[:4]
	waitForEpoch(t, rest, 2, 5*time.Second)
	r := rest[0].readRing()
	missing := 0
	for _, k := range keys {
		for _, s := range r.ReplicasFor([]byte(k), nil) {
			if !c.Nodes[s].store.Has(k) {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d replica copies missing after the decommission", missing)
	}
}
