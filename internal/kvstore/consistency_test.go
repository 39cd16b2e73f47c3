package kvstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/ring"
	"c3/internal/sim"
)

// Tunable-consistency tests: level parsing, quorum read/write semantics,
// version-guarded read repair, bounded hinted handoff, and a seeded
// consistency-chaos run pinning the R+W>N contract under kill/restart churn.

func TestLevelParseAndRequired(t *testing.T) {
	cases := []struct {
		in   string
		want Level
	}{
		{"one", One}, {"ONE", One}, {"1", One},
		{"quorum", Quorum}, {"Quorum", Quorum},
		{"all", All}, {"ALL", All},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseLevel(%q) = %v, %v", c.in, got, err)
		}
		if back, err := ParseLevel(got.String()); err != nil || back != got {
			t.Fatalf("String/Parse roundtrip broke for %v", got)
		}
	}
	if _, err := ParseLevel("eventual"); err == nil {
		t.Fatal("unknown level accepted")
	}
	reqs := []struct {
		lvl     Level
		n, want int
	}{
		{One, 3, 1}, {Quorum, 3, 2}, {Quorum, 4, 3}, {Quorum, 5, 3},
		{All, 3, 3}, {Quorum, 1, 1}, {All, 1, 1},
	}
	for _, r := range reqs {
		if got := r.lvl.required(r.n); got != r.want {
			t.Fatalf("%v.required(%d) = %d, want %d", r.lvl, r.n, got, r.want)
		}
	}
}

func TestQuorumPutGetRoundtrip(t *testing.T) {
	_, cl := startTestCluster(t, 5, Config{Seed: 21})
	for _, lvl := range []Level{Quorum, All} {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("lvl%d-%d", lvl, i)
			if err := cl.PutAt(k, []byte("v-"+k), lvl); err != nil {
				t.Fatalf("PutAt(%s, %v): %v", k, lvl, err)
			}
			// R+W>N: the quorum read overlaps the quorum write, no
			// settling sleep needed.
			v, ok, err := cl.GetAt(k, lvl)
			if err != nil || !ok || string(v) != "v-"+k {
				t.Fatalf("GetAt(%s, %v) = %q,%v,%v", k, v, lvl, ok, err)
			}
		}
	}
}

// TestQuorumReadYourWritesWithLaggingReplica: a replica that silently drops
// writes (the fault-injection hook) must not make an acked QUORUM write
// invisible to a QUORUM read — the read quorum always overlaps the write
// quorum on a replica that applied it. Every key is first written at ALL
// while the group is healthy, so the lagging replica holds an old value and
// a stale read shows up as that value rather than as a miss. The guarantee
// must hold whichever replica the strategy ranks first, with every read
// probing the lagging replica (whose write-backs it drops too) and with read
// repair off, where nothing but the level's overlap keeps the read fresh.
func TestQuorumReadYourWritesWithLaggingReplica(t *testing.T) {
	for _, strategy := range []string{StratC3, StratRR} {
		for _, rc := range []struct {
			name   string
			repair float64
		}{{"repair-every-read", 1}, {"repair-off", -1}} {
			t.Run(strategy+"/"+rc.name, func(t *testing.T) {
				// RF=3: one group.
				c, cl := startTestCluster(t, 3, Config{Seed: 22, Strategy: strategy, ReadRepair: rc.repair})
				const nKeys, rounds = 40, 3
				for i := 0; i < nKeys; i++ {
					k := fmt.Sprintf("lag-%d", i)
					if err := cl.PutAt(k, []byte("old-"+k), All); err != nil {
						t.Fatalf("PutAt(%s, ALL): %v", k, err)
					}
				}
				c.Nodes[2].SetDropWrites(true)
				for r := 1; r <= rounds; r++ {
					for i := 0; i < nKeys; i++ {
						k := fmt.Sprintf("lag-%d", i)
						want := fmt.Sprintf("v%d-%s", r, k)
						if err := cl.PutAt(k, []byte(want), Quorum); err != nil {
							t.Fatalf("PutAt(%s): %v", k, err)
						}
						v, ok, err := cl.GetAt(k, Quorum)
						if err != nil || !ok || string(v) != want {
							t.Fatalf("stale or missing quorum read of %s: %q,%v,%v, want %q", k, v, ok, err, want)
						}
					}
				}
			})
		}
	}
}

// TestQuorumReadRepairsStaleReplica: a quorum read that observes divergent
// replicas writes the newest version back before returning; the lagging
// replica converges without any further writes.
func TestQuorumReadRepairsStaleReplica(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 23})
	lag := c.Nodes[2]
	lag.SetDropWrites(true)
	const nKeys = 30
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("repair-%d", i)
		if err := cl.PutAt(k, []byte("v-"+k), Quorum); err != nil {
			t.Fatalf("PutAt(%s): %v", k, err)
		}
	}
	lag.SetDropWrites(false)
	// Quorum reads collect R=2 of 3 votes; the lagging replica joins some
	// vote sets and is repaired when it does. Read until it converged.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("repair-%d", i)
		for !lag.Store().Has(k) {
			if time.Now().After(deadline) {
				t.Fatalf("replica never repaired for %s", k)
			}
			if _, _, err := cl.GetAt(k, Quorum); err != nil {
				t.Fatalf("GetAt(%s): %v", k, err)
			}
		}
	}
	repairs := uint64(0)
	for _, n := range c.Nodes {
		repairs += n.StatsSnapshot().Repairs
	}
	if repairs == 0 {
		t.Fatal("replica converged without any recorded read repair")
	}
}

// TestRepairNeverClobbersNewerWrite: the write-back half of read repair runs
// under the replica's last-write-wins guard — a repair carrying an older
// version than what the replica holds is a no-op.
func TestRepairNeverClobbersNewerWrite(t *testing.T) {
	c, _ := startTestCluster(t, 3, Config{Seed: 24})
	n := c.Nodes[0]
	newVer := n.stampVersion()
	oldVer := newVer - (1 << versionNodeBits)
	if err := n.store.ApplyMulti([]string{"guarded"}, []uint64{newVer}, [][]byte{[]byte("newer")}, nil); err != nil {
		t.Fatal(err)
	}
	// Local repair with a stale version.
	n.repairKeys(n.id, []string{"guarded"}, []uint64{oldVer}, [][]byte{[]byte("older")})
	// Remote repair with a stale version.
	n.repairKeys(c.Nodes[1].id, []string{"guarded"}, []uint64{oldVer}, [][]byte{[]byte("older")})
	time.Sleep(50 * time.Millisecond) // let the remote write land
	if v, _, ok := n.store.GetVersioned(nil, "guarded"); !ok || string(v) != "newer" {
		t.Fatalf("stale repair clobbered newer local value: %q", v)
	}
	if v, ver, ok := c.Nodes[1].store.GetVersioned(nil, "guarded"); ok && (ver != oldVer || string(v) != "older") {
		t.Fatalf("remote stale repair landed wrong: %q ver=%d", v, ver)
	}
}

// TestQuorumUnavailableTypedErrors: with a majority of the replica group
// down, QUORUM reads and writes fail with errors that match the taxonomy.
func TestQuorumUnavailableTypedErrors(t *testing.T) {
	c, err := StartCluster(3, Config{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := Dial(c.Addrs()[:1]) // only the surviving coordinator
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.PutAt("pre", []byte("v"), Quorum); err != nil {
		t.Fatalf("healthy quorum write: %v", err)
	}
	c.Nodes[1].Crash()
	c.Nodes[2].Crash()

	err = cl.PutAt("k-unavail", []byte("v"), Quorum)
	if !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("quorum write with majority down: err = %v, want ErrQuorumUnavailable", err)
	}
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("quorum write error must also be ErrWriteFailed, got %v", err)
	}
	if _, _, gerr := cl.GetAt("pre", Quorum); !errors.Is(gerr, ErrQuorumUnavailable) {
		t.Fatalf("quorum read with majority down: err = %v, want ErrQuorumUnavailable", gerr)
	}
	// ONE still serves from the survivor.
	if err := cl.PutAt("k-one", []byte("v"), One); err != nil {
		t.Fatalf("CL=ONE write with majority down: %v", err)
	}
	if _, _, err := cl.GetAt("pre", One); err != nil {
		t.Fatalf("CL=ONE read with majority down: %v", err)
	}
	// Batch flavor: every key of a quorum MultiPut fails the level. The
	// coordinator's own replica still applies every key, so none of them is
	// a write no replica acknowledged: the request counts one quorum
	// failure and no write failure.
	coord := c.Nodes[0]
	before := coord.StatsSnapshot()
	writeFails, quorumFails := before.WriteFails, before.QuorumFails
	oks, err := cl.MultiPutAt([]string{"b1", "b2"}, [][]byte{[]byte("v"), []byte("v")}, Quorum)
	if !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("quorum MultiPut with majority down: err = %v", err)
	}
	for i, ok := range oks {
		if ok {
			t.Fatalf("key %d acked at quorum with majority down", i)
		}
	}
	if got := coord.StatsSnapshot().QuorumFails; got <= quorumFails {
		t.Fatalf("quorum failures %d -> %d: the failed batch was not counted", quorumFails, got)
	}
	waitFor(t, 5*time.Second, "the local replica to apply the batch", func() bool {
		return coord.Store().Has("b1") && coord.Store().Has("b2")
	})
	if got := coord.StatsSnapshot().WriteFails; got != writeFails {
		t.Fatalf("write failures %d -> %d: keys the coordinator's own replica applied were counted as unacknowledged", writeFails, got)
	}
}

// TestHintedHandoffHealsDownReplica: writes toward a crashed replica are
// banked on the coordinators and replayed once the replica returns; the
// replica converges without a single read. Half the keys are point Puts and
// half one MultiPut, whose leg toward the dead replica banks the whole
// sub-batch.
func TestHintedHandoffHealsDownReplica(t *testing.T) {
	c, err := StartCluster(3, Config{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addrs := c.Addrs()
	cl, err := Dial(addrs[:2])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	c.Nodes[2].Crash()
	const nKeys = 20
	var batchKeys []string
	var batchVals [][]byte
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("hint-%d", i)
		if i >= nKeys/2 {
			batchKeys, batchVals = append(batchKeys, k), append(batchVals, []byte("v-"+k))
			continue
		}
		if err := cl.Put(k, []byte("v-"+k)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	if _, err := cl.MultiPut(batchKeys, batchVals); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	// The failed fan-out legs bank hints on the two live coordinators.
	waitFor(t, 5*time.Second, "hints banked", func() bool {
		return c.Nodes[0].StatsSnapshot().HintsStored+c.Nodes[1].StatsSnapshot().HintsStored >= nKeys
	})

	n2 := restartNode(t, addrs, 2, Config{Seed: 26})
	c.Nodes[2] = n2
	// Replay drains with backoff once the peer is reachable again.
	waitFor(t, 15*time.Second, "hints replayed", func() bool {
		for i := 0; i < nKeys; i++ {
			if !n2.Store().Has(fmt.Sprintf("hint-%d", i)) {
				return false
			}
		}
		return c.Nodes[0].StatsSnapshot().HintsPending+c.Nodes[1].StatsSnapshot().HintsPending == 0
	})
	if rep := c.Nodes[0].StatsSnapshot().HintsReplayed + c.Nodes[1].StatsSnapshot().HintsReplayed; rep < nKeys {
		t.Fatalf("replayed %d hints, want ≥ %d", rep, nKeys)
	}
}

// TestHintsSurviveCoordinatorRestart: a durable coordinator's banked hints
// are recovered from its sidecar logs after a hard crash and still replayed
// to the returning replica.
func TestHintsSurviveCoordinatorRestart(t *testing.T) {
	cfg := Config{Seed: 27, DataDir: t.TempDir()}
	c, err := StartCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addrs := c.Addrs()
	cl, err := Dial(addrs[:1]) // all writes coordinate at node 0
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	c.Nodes[2].Crash()
	const nKeys = 10
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("surv-%d", i)
		if err := cl.Put(k, []byte("v-"+k)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	waitFor(t, 5*time.Second, "hints banked on node 0", func() bool {
		return c.Nodes[0].StatsSnapshot().HintsStored >= nKeys
	})

	// Hard-crash the coordinator holding the debt, then bring it back over
	// the same data directory: the hint logs must restore the queue.
	c.Nodes[0].Crash()
	n0 := restartNode(t, addrs, 0, cfg)
	c.Nodes[0] = n0
	if n0.StatsSnapshot().HintsPending == 0 {
		t.Fatal("restarted coordinator recovered no hints from disk")
	}

	n2 := restartNode(t, addrs, 2, cfg)
	c.Nodes[2] = n2
	waitFor(t, 15*time.Second, "recovered hints replayed", func() bool {
		return n0.StatsSnapshot().HintsPending == 0
	})
	// The replica converges from hints plus its own recovered storage.
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("surv-%d", i)
		if !n2.Store().Has(k) {
			t.Fatalf("replica missing %q after hint replay", k)
		}
	}
}

// TestHintCapBoundsDebtAndFailsQuorum: once a down replica's hint queue is
// full, further CL=ONE writes drop their hint (bounded debt) and
// quorum-level writes covering that replica refuse deterministically with
// ErrQuorumUnavailable.
func TestHintCapBoundsDebtAndFailsQuorum(t *testing.T) {
	cfg := Config{Seed: 28, HintCap: 4}
	c, err := StartCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := Dial(c.Addrs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	c.Nodes[2].Crash()
	// Fill node 0's hint queue toward node 2 (CL=ONE writes keep acking).
	for i := 0; i < 12; i++ {
		if err := cl.Put(fmt.Sprintf("fill-%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "hint queue full", func() bool {
		return c.Nodes[0].StatsSnapshot().HintsDropped > 0
	})

	// A quorum write covering the dead, debt-saturated replica is refused
	// up front — even though two live replicas could have acked it. Retry
	// briefly: the refusal needs the peer slot to have noticed the death.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := cl.PutAt("refused", []byte("v"), Quorum)
		if errors.Is(err, ErrQuorumUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quorum write with full hint queue: err = %v, want ErrQuorumUnavailable", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Batch flavor.
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := cl.MultiPutAt([]string{"rb1", "rb2"}, [][]byte{[]byte("v"), []byte("v")}, Quorum)
		if errors.Is(err, ErrQuorumUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quorum MultiPut with full hint queue: err = %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := c.Nodes[0].StatsSnapshot().HintsPending; got > cfg.HintCap {
		t.Fatalf("hint debt %d exceeds cap %d", got, cfg.HintCap)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchQuorumRepairsStaleReplica: the batch quorum path merges per key by
// highest version and repairs stale responders, same contract as the point
// path.
func TestBatchQuorumRepairsStaleReplica(t *testing.T) {
	c, cl := startTestCluster(t, 3, Config{Seed: 29})
	lag := c.Nodes[2]
	lag.SetDropWrites(true)
	keys := make([]string, 16)
	vals := make([][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("bq-%d", i)
		vals[i] = []byte("v-" + keys[i])
	}
	oks, err := cl.MultiPutAt(keys, vals, Quorum)
	if err != nil {
		t.Fatalf("MultiPutAt: %v", err)
	}
	for i, ok := range oks {
		if !ok {
			t.Fatalf("key %d not acked at quorum", i)
		}
	}
	lag.SetDropWrites(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, found, err := cl.MultiGetAt(keys, Quorum)
		if err != nil {
			t.Fatalf("MultiGetAt: %v", err)
		}
		for i := range keys {
			if !found[i] || string(got[i]) != string(vals[i]) {
				t.Fatalf("quorum batch read of %s = %q,%v", keys[i], got[i], found[i])
			}
		}
		healed := true
		for _, k := range keys {
			if !lag.Store().Has(k) {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lagging replica never converged via batch quorum reads")
		}
	}
}

// TestConsistencyChaosQuorum: the tentpole invariant under churn. Writers
// bump per-key sequence numbers at QUORUM; readers at QUORUM must never
// observe a sequence older than one already acknowledged before the read
// began (R+W>N ⇒ zero stale reads), while storage nodes hard-crash and
// restart over their data directories. Quorum failures during churn are
// fine; going back in time is not.
func TestConsistencyChaosQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/restart churn chaos; the dedicated race step runs it in full")
	}
	for _, seed := range []uint64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConsistencyChaos(t, seed)
		})
	}
}

func runConsistencyChaos(t *testing.T, seed uint64) {
	cfg := Config{Seed: seed, ReadBudget: time.Second, DataDir: t.TempDir()}
	c, err := StartCluster(5, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	addrs := c.Addrs()
	// Coordinators 0..2 stay alive; storage nodes 3,4 crash-cycle.
	cl, err := Dial(addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	const keysPerWriter = 4
	type slot struct{ acked atomic.Uint64 }
	ledger := make(map[string]*slot)
	var allKeys []string
	for w := 0; w < 2; w++ {
		for j := 0; j < keysPerWriter; j++ {
			k := fmt.Sprintf("cchaos%d-w%d-%d", seed, w, j)
			ledger[k] = &slot{}
			allKeys = append(allKeys, k)
		}
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failure string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
		stop.Store(true)
	}

	// Writers: single writer per key, monotonically increasing sequence
	// values at QUORUM. Only an acked sequence enters the ledger; a failed
	// quorum write may still have landed partially, which readers must
	// tolerate as "newer than acked" — never older.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := uint64(0)
			for i := 0; !stop.Load(); i++ {
				k := fmt.Sprintf("cchaos%d-w%d-%d", seed, w, i%keysPerWriter)
				seq++
				err := cl.PutAt(k, []byte(strconv.FormatUint(seq, 10)), Quorum)
				if err != nil {
					if !errors.Is(err, ErrWriteFailed) {
						fail("writer %d: unexpected error class: %v", w, err)
						return
					}
					continue // level missed during churn: not acked, not in ledger
				}
				ledger[k].acked.Store(seq)
			}
		}(w)
	}

	// Readers: load the acked floor BEFORE the read; the quorum read must
	// return a sequence ≥ that floor.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := sim.RNG(seed, 0xfeed+uint64(r))
			for !stop.Load() {
				k := allKeys[int(rng.Uint64()%uint64(len(allKeys)))]
				floor := ledger[k].acked.Load()
				if floor == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				v, ok, err := cl.GetAt(k, Quorum)
				if err != nil {
					if !errors.Is(err, ErrQuorumUnavailable) && !errors.Is(err, ErrTimeout) {
						fail("reader %d: unexpected error class: %v", r, err)
						return
					}
					continue // level unreachable during churn: no answer, no staleness
				}
				if !ok {
					fail("reader %d: acked key %q missing at QUORUM (floor %d)", r, k, floor)
					return
				}
				got, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					fail("reader %d: undecodable value %q for %q", r, v, k)
					return
				}
				if got < floor {
					fail("reader %d: STALE READ of %q: got seq %d, acked floor %d", r, k, got, floor)
					return
				}
			}
		}(r)
	}

	// Churn: hard-crash and restart the storage nodes; at most one of the
	// two is ever down, so every replica group keeps a live majority.
	rng := sim.RNG(seed, 0xabba)
	for cycle := 0; cycle < 3 && !stop.Load(); cycle++ {
		time.Sleep(time.Duration(40+rng.Uint64()%60) * time.Millisecond)
		id := 3 + int(rng.Uint64()%2)
		c.Nodes[id].Crash()
		time.Sleep(time.Duration(30+rng.Uint64()%50) * time.Millisecond)
		c.Nodes[id] = restartNode(t, addrs, id, cfg)
	}

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	failMu.Lock()
	if failure != "" {
		failMu.Unlock()
		t.Fatal(failure)
	}
	failMu.Unlock()

	// Zero acked-write loss at QUORUM: every key's final acked sequence is
	// readable — no settling grace needed, the ack itself was the quorum.
	wrote := false
	for k, s := range ledger {
		floor := s.acked.Load()
		if floor == 0 {
			continue
		}
		wrote = true
		v, ok, err := cl.GetAt(k, Quorum)
		if err != nil || !ok {
			t.Fatalf("final read of %q: %v, %v", k, ok, err)
		}
		if got, _ := strconv.ParseUint(string(v), 10, 64); got < floor {
			t.Fatalf("acked write lost: %q at seq %d, acked %d", k, got, floor)
		}
	}
	if !wrote {
		t.Fatal("chaos run acked no quorum writes")
	}
}

// TestRepairHealsDroppedWrite: a replica that dropped a write — and still
// drops them — takes a read repair's write-back whatever its key count,
// because the write-back is a heal and the drop-writes fault never applies to
// one.
func TestRepairHealsDroppedWrite(t *testing.T) {
	for _, nk := range []int{1, 2} {
		t.Run(fmt.Sprintf("keys=%d", nk), func(t *testing.T) {
			c, _ := startTestCluster(t, 3, Config{Seed: 23, ReadRepair: -1}) // RF=3: every node a replica
			cl := pinnedClient(t, c.Nodes[0])
			stale := c.Nodes[2]
			stale.SetDropWrites(true)
			keys := sameGroupKeys(c.Nodes[0], "heal", nk) // one sub-batch: one repair of nk keys
			for _, k := range keys {
				if err := cl.PutAt(k, []byte("v-"+k), Quorum); err != nil {
					t.Fatalf("PutAt(%s): %v", k, err)
				}
				if stale.Store().Has(k) {
					t.Fatalf("node 2 applied %s while dropping writes", k)
				}
			}
			if nk == 1 {
				if v, ok, err := cl.GetAt(keys[0], All); err != nil || !ok || string(v) != "v-"+keys[0] {
					t.Fatalf("GetAt(%s, All) = %q,%v,%v", keys[0], v, ok, err)
				}
			} else if _, found, err := cl.MultiGetAt(keys, All); err != nil || !found[0] || !found[1] {
				t.Fatalf("MultiGetAt(All) = %v,%v", found, err)
			}
			for _, k := range keys {
				if v, _, ok := stale.Store().GetVersioned(nil, k); !ok || string(v) != "v-"+k {
					t.Fatalf("node 2 holds %s = %q,%v after the repair; want it healed", k, v, ok)
				}
			}
		})
	}
}

// sameGroupKeys returns count keys that share one replica group of n's read
// ring, so a read of them is one sub-batch.
func sameGroupKeys(n *Node, prefix string, count int) []string {
	r := n.topo.Load().readRing()
	var keys []string
	group := -1
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		gi := r.GroupIndexFor(ring.Token([]byte(k)))
		if group < 0 {
			group = gi
		}
		if gi == group {
			keys = append(keys, k)
		}
	}
	return keys
}
