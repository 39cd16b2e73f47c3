package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/sim"
)

// Durability across the full stack: nodes with a data directory must bring
// every acknowledged write back after both clean restarts (Close → StartNode)
// and hard crashes (Crash → StartNode), and a node that lost its disk must be
// able to rebuild from its co-replicas.

// startDurableCluster boots a durable loopback cluster rooted at a temp dir.
func startDurableCluster(t *testing.T, nodes int, cfg Config) (*Cluster, *Client, Config) {
	t.Helper()
	cfg.DataDir = t.TempDir()
	c, err := StartCluster(nodes, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cl.Close)
	return c, cl, cfg
}

// restartNode relaunches node id over its old address and data directory,
// retrying briefly in case the freed port is still settling.
func restartNode(t *testing.T, addrs []string, id int, cfg Config) *Node {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 100; attempt++ {
		n, err := StartNode(id, addrs, cfg)
		if err == nil {
			return n
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("restart node %d: %v", id, lastErr)
	return nil
}

func TestNodeRestartRecoversAckedWrites(t *testing.T) {
	for _, mode := range []string{"crash", "clean"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			// 3 nodes at RF=3: every node replicates every key, so after
			// fan-out settles the victim's local store must hold them all.
			c, cl, cfg := startDurableCluster(t, 3, Config{Seed: 11})
			addrs := c.Addrs()
			const nKeys = 300
			for i := 0; i < nKeys; i++ {
				k := fmt.Sprintf("dur-%s-%04d", mode, i)
				if err := cl.Put(k, []byte("v-"+k)); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			time.Sleep(150 * time.Millisecond) // CL=ONE: let the fan-out land everywhere

			victim := c.Nodes[2]
			if mode == "crash" {
				victim.Crash()
			} else {
				victim.Close()
			}
			n := restartNode(t, addrs, 2, cfg)
			c.Nodes[2] = n

			// The restarted node's own storage recovered every write...
			for i := 0; i < nKeys; i++ {
				k := fmt.Sprintf("dur-%s-%04d", mode, i)
				if !n.Store().Has(k) {
					t.Fatalf("restarted node lost acked key %q (%s restart)", k, mode)
				}
			}
			// ...and the cluster serves them all.
			for i := 0; i < nKeys; i++ {
				k := fmt.Sprintf("dur-%s-%04d", mode, i)
				v, ok, err := cl.Get(k)
				if err != nil || !ok || string(v) != "v-"+k {
					t.Fatalf("Get(%s) after restart = %q,%v,%v", k, v, ok, err)
				}
			}
		})
	}
}

// A full-fleet shutdown and reboot over the same data directories — the
// `c3cluster -tcp -data <dir>` demo contract — recovers everything.
func TestClusterRestartFromDisk(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{Seed: 13, DataDir: dataDir}
	c, err := StartCluster(3, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const nKeys = 200
	for i := 0; i < nKeys; i++ {
		if err := cl.Put(fmt.Sprintf("boot-%04d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	cl.Close()
	c.Close() // clean shutdown: flush + WAL drain on every node

	c2, err := StartCluster(3, cfg) // fresh ports, same node dirs
	if err != nil {
		t.Fatalf("StartCluster (reboot): %v", err)
	}
	t.Cleanup(c2.Close)
	cl2, err := Dial(c2.Addrs())
	if err != nil {
		t.Fatalf("Dial (reboot): %v", err)
	}
	t.Cleanup(cl2.Close)
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("boot-%04d", i)
		v, ok, err := cl2.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after reboot = %q,%v,%v", k, v, ok, err)
		}
	}
}

// A node that lost its disk restarts empty and streams its owed ranges back
// from co-replicas; keys outside its ranges must not appear.
func TestRebuildFromPeersAfterDiskLoss(t *testing.T) {
	c, cl, cfg := startDurableCluster(t, 5, Config{Seed: 17})
	addrs := c.Addrs()
	const nKeys = 400
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("rebuild-%04d", i)
		if err := cl.Put(k, []byte("v-"+k)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	time.Sleep(150 * time.Millisecond)

	const victimID = 4
	c.Nodes[victimID].Crash()
	if err := os.RemoveAll(filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", victimID))); err != nil {
		t.Fatalf("wiping victim dir: %v", err)
	}
	n := restartNode(t, addrs, victimID, cfg)
	c.Nodes[victimID] = n
	if n.Store().Len() != 0 {
		t.Fatalf("wiped node restarted with %d keys", n.Store().Len())
	}
	if err := n.RebuildFromPeers(); err != nil {
		t.Fatalf("RebuildFromPeers: %v", err)
	}

	ring := n.readRing()
	owned, recovered := 0, 0
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("rebuild-%04d", i)
		owns := false
		for _, s := range ring.ReplicasFor([]byte(k), nil) {
			if s == n.id {
				owns = true
			}
		}
		if owns {
			owned++
			if n.Store().Has(k) {
				recovered++
			} else {
				t.Errorf("owned key %q not rebuilt", k)
			}
		} else if n.Store().Has(k) {
			t.Errorf("rebuild pulled un-owned key %q", k)
		}
	}
	if owned == 0 {
		t.Fatal("victim owned no keys; test is vacuous")
	}
	t.Logf("rebuilt %d/%d owned keys (of %d total)", recovered, owned, nKeys)
}

// Kill-restart chaos: concurrent writers, a storage node repeatedly
// hard-crashed and restarted over its surviving directory. With durable
// storage the invariant is strict — every acked write is readable once the
// dust settles, even when the crashed node was the only replica that acked.
func TestDurableChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/restart churn chaos; the dedicated race step runs it in full")
	}
	// Each seed runs a different shard-per-core width, so the crash/restart
	// cycles cover the unsharded layout and true multi-WAL parallel recovery
	// (4 and 8 WALs replaying concurrently on every restart).
	for _, tc := range []struct {
		seed   uint64
		shards int
	}{{1, 1}, {2, 4}, {3, 8}} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d,shards=%d", tc.seed, tc.shards), func(t *testing.T) {
			t.Parallel()
			runDurableChaos(t, tc.seed, tc.shards)
		})
	}
}

func runDurableChaos(t *testing.T, seed uint64, shards int) {
	cfg := Config{Seed: seed, ReadBudget: time.Second, DataDir: t.TempDir(), Shards: shards}
	c, err := StartCluster(5, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	addrs := c.Addrs()
	// Only dial the first three nodes: they are never killed, so client
	// traffic keeps flowing while the storage nodes crash-cycle.
	cl, err := Dial(addrs[:3])
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cl.Close)

	var (
		ledger chaosLedger
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := fmt.Sprintf("dchaos%d-w%d-%06d", seed, w, i)
				if i%6 == 5 {
					keys := []string{k + "-a", k + "-b", k + "-c"}
					vals := [][]byte{[]byte("v"), []byte("v"), []byte("v")}
					oks, err := cl.MultiPut(keys, vals)
					if err != nil {
						continue
					}
					for j, ok := range oks {
						if ok {
							ledger.add(keys[j])
						}
					}
					continue
				}
				if err := cl.Put(k, []byte("val-"+k)); err == nil {
					ledger.add(k)
				}
			}
		}(w)
	}

	// Orchestrator: crash/restart cycles on the non-coordinator storage
	// nodes (clients only dial 0..2; those stay up so acks keep flowing).
	rng := sim.RNG(seed, 0xdead)
	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(time.Duration(40+rng.Uint64()%80) * time.Millisecond)
		id := 3 + int(rng.Uint64()%2)
		c.Nodes[id].Crash()
		time.Sleep(time.Duration(20+rng.Uint64()%60) * time.Millisecond)
		c.Nodes[id] = restartNode(t, addrs, id, cfg)
		if got := c.Nodes[id].Store().ShardCount(); got != shards {
			t.Fatalf("node %d recovered with %d shards, want %d", id, got, shards)
		}
	}

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Strict zero acked-write loss after settling.
	keys := ledger.all()
	if len(keys) == 0 {
		t.Fatal("chaos run acked no writes")
	}
	deadline := time.Now().Add(5 * time.Second)
	for start := 0; start < len(keys); start += 256 {
		end := min(start+256, len(keys))
		chunk := keys[start:end]
		for {
			_, found, err := cl.MultiGet(chunk)
			missing := ""
			if err == nil {
				for i, ok := range found {
					if !ok {
						missing = chunk[i]
						break
					}
				}
				if missing == "" {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("acked write lost across kill-restart: key %q err %v", missing, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
