package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"c3/internal/core"
	"c3/internal/wire"
)

// putBatchAndSettle MultiPuts keys=vals at ALL: the ack means every replica
// of every key holds the batch, so whichever replica a following CL=ONE read
// lands on, it sees it.
func putBatchAndSettle(t *testing.T, cl *Client, keys []string, vals [][]byte) {
	t.Helper()
	oks, err := cl.MultiPutAt(keys, vals, All)
	if err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("MultiPut did not ack key %q", keys[i])
		}
	}
}

// keysExcludingNode generates n distinct keys whose replica groups all avoid
// node `out` (requires nodes > RF).
func keysExcludingNode(t *testing.T, node *Node, out core.ServerID, prefix string, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough keys excluding the node")
		}
		key := fmt.Sprintf("%s-%d", prefix, i)
		hit := false
		for _, s := range node.readRing().ReplicasFor([]byte(key), nil) {
			if s == out {
				hit = true
				break
			}
		}
		if !hit {
			keys = append(keys, key)
		}
	}
	return keys
}

func batchKeysVals(prefix string, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%04d", prefix, i)
		vals[i] = []byte(fmt.Sprintf("value-of-%s-%04d", prefix, i))
	}
	return keys, vals
}

func TestMultiGetMultiPutRoundTrip(t *testing.T) {
	_, cl := startTestCluster(t, 5, Config{Seed: 31})
	keys, vals := batchKeysVals("mg", 64)
	putBatchAndSettle(t, cl, keys, vals)

	got, found, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if !found[i] {
			t.Fatalf("key %q missing", keys[i])
		}
		if string(got[i]) != string(vals[i]) {
			t.Fatalf("key %q = %q, want %q", keys[i], got[i], vals[i])
		}
	}
}

// TestMultiGetPartialMisses: a batch mixing present and never-written keys
// reports per-key status — the present keys' values intact, the missing keys
// found=false with nil values, in the client's key order.
func TestMultiGetPartialMisses(t *testing.T) {
	_, cl := startTestCluster(t, 5, Config{Seed: 32})
	keys, vals := batchKeysVals("pm", 16)
	putBatchAndSettle(t, cl, keys, vals)

	mixed := make([]string, 0, 32)
	for i := range keys {
		mixed = append(mixed, keys[i], fmt.Sprintf("pm-missing-%04d", i))
	}
	got, found, err := cl.MultiGet(mixed)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range mixed {
		if i%2 == 0 {
			if !found[i] || string(got[i]) != string(vals[i/2]) {
				t.Fatalf("present key %q: found=%v val=%q", mixed[i], found[i], got[i])
			}
		} else {
			if found[i] {
				t.Fatalf("missing key %q reported found", mixed[i])
			}
			if got[i] != nil {
				t.Fatalf("missing key %q carries value %q", mixed[i], got[i])
			}
		}
	}
}

// TestMultiGetEmptyValueDistinguishable: a present-but-empty value is found
// with a non-nil empty slice, like Get.
func TestMultiGetEmptyValueDistinguishable(t *testing.T) {
	_, cl := startTestCluster(t, 3, Config{Seed: 33})
	keys := []string{"empty-a", "empty-b"}
	putBatchAndSettle(t, cl, keys, [][]byte{{}, []byte("x")})
	got, found, err := cl.MultiGet(keys)
	if err != nil || !found[0] || !found[1] {
		t.Fatalf("MultiGet: found=%v err=%v", found, err)
	}
	if got[0] == nil || len(got[0]) != 0 {
		t.Fatalf("empty value = %v, want non-nil empty", got[0])
	}
}

// TestMultiGetChunksLargeBatches: batches beyond wire.MaxBatchKeys are split
// transparently into multiple RPCs, results reassembled in order.
func TestMultiGetChunksLargeBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("large batch")
	}
	_, cl := startTestCluster(t, 3, Config{Seed: 34})
	keys, vals := batchKeysVals("chunk", 5000) // > MaxBatchKeys (4096): two chunks
	putBatchAndSettle(t, cl, keys, vals)
	got, found, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if !found[i] || string(got[i]) != string(vals[i]) {
			t.Fatalf("key %d: found=%v", i, found[i])
		}
	}
}

// TestBatchZeroResidualUnderHedgeAndDelay: batch traffic through the full
// race ladder (storage delay forces the non-inline path, hedging enabled)
// must leave zero outstanding accounting when it quiesces — every PickBatch/
// PickHedgeN of n keys balanced by exactly one weighted release.
func TestBatchZeroResidualUnderHedgeAndDelay(t *testing.T) {
	cfg := Config{
		Seed:          35,
		ReadDelayMean: 200 * time.Microsecond,
		ReadRepair:    -1,
	}
	cfg.Hedge.MinDelay = 50 * time.Microsecond // hedge aggressively
	c, cl := startTestCluster(t, 5, cfg)
	keys, vals := batchKeysVals("resid", 48)
	putBatchAndSettle(t, cl, keys, vals)
	for round := 0; round < 30; round++ {
		if _, _, err := cl.MultiGet(keys); err != nil {
			t.Fatalf("MultiGet round %d: %v", round, err)
		}
	}
	hedges := uint64(0)
	for _, n := range c.Nodes {
		hedges += n.HedgesIssued()
	}
	settleOutstanding(t, c.Nodes, 5, 3*time.Second)
	t.Logf("hedges issued (keys duplicated): %d", hedges)
}

// TestBatchSurvivesReplicaCrashMidBatch: killing a replica while batches are
// in flight must not lose keys — sub-batches toward the dead replica fail
// over to the next-ranked one — and the accounting residual on the surviving
// nodes must settle to zero.
func TestBatchSurvivesReplicaCrashMidBatch(t *testing.T) {
	cfg := Config{Seed: 36, ReadRepair: -1}
	c, cl := startTestCluster(t, 5, cfg)
	keys, vals := batchKeysVals("crash", 64)
	putBatchAndSettle(t, cl, keys, vals)

	// Talk only to node 0 so the victim is never our coordinator.
	solo, err := Dial([]string{c.Nodes[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Close)

	victim := c.Nodes[4]
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		victim.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, found, err := solo.MultiGet(keys)
		if err != nil {
			t.Fatalf("MultiGet during crash: %v", err)
		}
		all := true
		for i := range keys {
			if !found[i] || string(got[i]) != string(vals[i]) {
				all = false
				break
			}
		}
		select {
		case <-done:
			if all {
				// One more full read after the crash settled proves no key
				// was lost with the replica.
				settleOutstanding(t, c.Nodes[:4], 5, 3*time.Second)
				return
			}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("batch reads never recovered every key after the crash")
		}
	}
}

// TestMultiPutKeyNamedTwiceKeepsLastValue: a batch that names a key more
// than once leaves the key's last value on every replica, and acks each
// place the key was named.
func TestMultiPutKeyNamedTwiceKeepsLastValue(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 38})
	keys := []string{"dup", "solo", "dup", "pair", "dup", "pair"}
	vals := [][]byte{[]byte("first"), []byte("s"), []byte("middle"), []byte("p1"), []byte("last"), []byte("p2")}
	oks, err := cl.MultiPutAt(keys, vals, All)
	if err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("key %q at %d not acked", keys[i], i)
		}
	}
	want := map[string]string{"dup": "last", "solo": "s", "pair": "p2"}
	for _, n := range c.Nodes { // RF 3 on 3 nodes: every node holds every key
		for k, w := range want {
			if v, _, ok := n.store.GetVersioned(nil, k); !ok || string(v) != w {
				t.Fatalf("node %d: %q = %q (found %v), want %q", n.id, k, v, ok, w)
			}
		}
	}
}

// TestMultiPutAllReplicasDown: a batch write whose keys' whole replica groups
// are unreachable must surface ErrWriteFailed with every ok false — the
// batch counterpart of the ack-on-failure regression.
func TestMultiPutAllReplicasDown(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 37})
	coordinator := c.Nodes[0]
	keys := keysExcludingNode(t, coordinator, 0, "mpad", 4)
	for i := 1; i < 5; i++ {
		c.Nodes[i].Close()
	}
	cl, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = []byte("v")
	}
	oks, err := cl.MultiPut(keys, vals)
	if err == nil {
		t.Fatal("all-replicas-down batch write was acknowledged")
	}
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("MultiPut error = %v, want ErrWriteFailed", err)
	}
	for i, ok := range oks {
		if ok {
			t.Fatalf("key %q acked with its whole group down", keys[i])
		}
	}
	if coordinator.WriteFailures() == 0 {
		t.Fatal("coordinator did not count the failed batch writes")
	}
}

// TestMultiGetAllReplicasDownReportsMissing: with every replica of the keys'
// groups down, a batch read must come back per-key not-found (after the
// failover ladder exhausts the groups), not error or hang, and the
// coordinator's accounting must settle.
func TestMultiGetAllReplicasDownReportsMissing(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 38})
	coordinator := c.Nodes[0]
	keys := keysExcludingNode(t, coordinator, 0, "mgad", 3)
	for i := 1; i < 5; i++ {
		c.Nodes[i].Close()
	}
	cl, err := Dial([]string{coordinator.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	start := time.Now()
	_, found, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if found[i] {
			t.Fatalf("key %q reported found with its whole group down", keys[i])
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("all-down batch read took %v", elapsed)
	}
	settleOutstanding(t, c.Nodes[:1], 5, 3*time.Second)
}

// TestPointGetAllReplicasDownFails: the point twin — a CL=ONE Get whose
// whole replica group is down fails with ErrQuorumUnavailable instead of
// reporting a miss, and counts no quorum failure: ONE has no quorum to miss.
func TestPointGetAllReplicasDownFails(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 41})
	coordinator := c.Nodes[0]
	key := keysExcludingNode(t, coordinator, 0, "pgad", 1)[0]
	for i := 1; i < 5; i++ {
		c.Nodes[i].Close()
	}
	cl := pinnedClient(t, coordinator)
	before := coordinator.QuorumFailures()
	if _, ok, err := cl.Get(key); !errors.Is(err, ErrQuorumUnavailable) || ok {
		t.Fatalf("Get with its whole group down = %v,%v, want ErrQuorumUnavailable", ok, err)
	}
	if d := coordinator.QuorumFailures() - before; d != 0 {
		t.Fatalf("a failed CL=ONE read counted %d quorum failures", d)
	}
	settleOutstanding(t, c.Nodes[:1], 5, 3*time.Second)
}

// TestReadBudgetBoundsStalledReads: the ReadBudget config field must bound a
// read whose every replica is stalled — a point read fails with ErrTimeout
// and a batch read reports its keys not-found within the budget instead of
// riding the stall — and the abandoned in-flight requests release their
// accounting.
func TestReadBudgetBoundsStalledReads(t *testing.T) {
	const stall = 400 * time.Millisecond
	cfg := Config{Seed: 39, ReadBudget: 60 * time.Millisecond, ReadRepair: -1}
	// The stall is everywhere; a hedge cannot rescue, so none fires.
	cfg.Hedge.MinDelay, cfg.Hedge.MaxDelay = time.Hour, time.Hour
	c, cl := startTestCluster(t, 3, cfg)
	keys, vals := batchKeysVals("budget", 8)
	putBatchAndSettle(t, cl, keys, vals)

	for _, n := range c.Nodes {
		n.SetSlowdown(stall)
	}
	start := time.Now()
	_, ok, err := cl.Get(keys[0])
	pointElapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled point read: err = %v, want ErrTimeout", err)
	}
	if ok {
		t.Fatal("stalled point read returned a value inside a 60ms budget")
	}
	if pointElapsed >= stall {
		t.Fatalf("point read took %v, want < the %v stall (budget must cut it)", pointElapsed, stall)
	}

	start = time.Now()
	_, found, err := cl.MultiGet(keys)
	batchElapsed := time.Since(start)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if found[i] {
			t.Fatalf("stalled batch read returned key %q inside the budget", keys[i])
		}
	}
	if batchElapsed >= stall {
		t.Fatalf("batch read took %v, want < the %v stall", batchElapsed, stall)
	}

	for _, n := range c.Nodes {
		n.SetSlowdown(0)
	}
	settleOutstanding(t, c.Nodes, 3, 5*time.Second)
}

// TestBatchKeysSpanGroups sanity-checks the partition: a 64-key batch on a
// 5-node RF=3 ring touches more than one replica group, every key lands in
// exactly one sub-batch, and that sub-batch reads from the key's group.
func TestBatchKeysSpanGroups(t *testing.T) {
	c, _ := startTestCluster(t, 5, Config{Seed: 40})
	n := c.Nodes[0]
	keys, _ := batchKeysVals("span", 64)
	g := n.newReadGather(wire.LevelOne, keys, readValues)
	defer g.release()
	if len(g.subs) < 2 {
		t.Fatalf("64 keys partitioned into %d sub-batches; want several groups", len(g.subs))
	}
	seen := 0
	for i := range g.subs {
		sb := &g.subs[i]
		if len(g.group(sb)) != 3 {
			t.Fatalf("sub-batch group size = %d, want RF=3", len(g.group(sb)))
		}
		seen += int(sb.hi - sb.lo)
	}
	if seen != len(keys) {
		t.Fatalf("partition covers %d keys, want %d", seen, len(keys))
	}
	ring := n.readRing()
	for i, k := range keys {
		j := g.at[i]
		if g.keys[j] != k {
			t.Fatalf("key %d laid out as %q, want %q", i, g.keys[j], k)
		}
		for s := range g.subs {
			if sb := &g.subs[s]; sb.lo <= j && j < sb.hi {
				if want := ring.ReplicasFor([]byte(k), nil); !slices.Equal(g.group(sb), want) {
					t.Fatalf("key %q reads from %v, its group is %v", k, g.group(sb), want)
				}
			}
		}
	}
}

// TestMultiGetOversizedResponseFailsFast: a batch whose values cannot fit
// one response frame (sum > wire.MaxFrame while each value is within
// MaxValueLen) must fail fast — an error or per-key not-founds — never hang
// the client on a silently dropped response, and the cluster must still
// close cleanly (no wedged serve goroutines).
func TestMultiGetOversizedResponseFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~60MB over loopback")
	}
	_, cl := startTestCluster(t, 3, Config{Seed: 43, ReadRepair: -1})
	keys := []string{"huge-0", "huge-1", "huge-2"}
	val := make([]byte, 7<<20) // each fits a frame; three together overflow MaxFrame
	for _, k := range keys {
		if err := cl.Put(k, val); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	for _, k := range keys { // point reads must still work
		for attempt := 0; ; attempt++ {
			if v, ok, err := cl.Get(k); err == nil && ok && len(v) == len(val) {
				break
			} else if attempt > 100 {
				t.Fatalf("warm Get(%s): ok=%v err=%v", k, ok, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	type result struct {
		found []bool
		err   error
	}
	done := make(chan result, 1)
	go func() {
		_, found, err := cl.MultiGet(keys)
		done <- result{found, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			for i, ok := range res.found {
				if ok {
					t.Fatalf("key %q reported found from an unencodable response", keys[i])
				}
			}
		}
		// Either outcome — transport error or all-not-found — is a fast,
		// honest failure. The cluster teardown in Cleanup asserts no wedge.
	case <-time.After(15 * time.Second):
		t.Fatal("oversized MultiGet hung")
	}
}

// TestBatchAccountingUsesWeights: a MultiGet through a coordinator with a
// selector that tracks outstanding counts must account the whole sub-batch
// (n keys) while in flight — observable indirectly: after quiescence the
// residual is zero even though dispatches moved the counters by n at a time.
// Read repair is left at its default here, so the batch repair probes
// (version-only probe legs) run too and their weighted accounting must settle.
func TestBatchAccountingUsesWeights(t *testing.T) {
	cfg := Config{Seed: 41, ReadDelayMean: 100 * time.Microsecond}
	c, cl := startTestCluster(t, 5, cfg)
	keys, vals := batchKeysVals("weights", 32)
	putBatchAndSettle(t, cl, keys, vals)
	for i := 0; i < 10; i++ {
		if _, _, err := cl.MultiGet(keys); err != nil {
			t.Fatal(err)
		}
	}
	settleOutstanding(t, c.Nodes, 5, 3*time.Second)
	// The ranker's q̄ must have digested batch feedback without going
	// negative or NaN: probe a score read under the lock.
	for _, n := range c.Nodes {
		n.sels.Each(func(c *core.Client) {
			c.Inspect(func(r core.Ranker) {
				if cr, ok := r.(*core.CubicRanker); ok {
					for p := 0; p < 5; p++ {
						q := cr.QueueEstimate(core.ServerID(p))
						if q < 1 || q != q {
							t.Fatalf("node %d q̂ toward %d = %v", n.ID(), p, q)
						}
					}
				}
			})
		})
	}
}
