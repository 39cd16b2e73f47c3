package kvstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/obs"
	"c3/internal/resp"
	"c3/internal/wire"
)

// startGateway boots an n-node cluster and fronts node 0 with a RESP server
// at the given level, returning a connected RESP client.
func startGateway(t *testing.T, n int, cfg Config, lvl Level) (*Cluster, *resp.Client) {
	t.Helper()
	c, addr := startGatewayAddr(t, n, cfg, lvl)
	rc, err := resp.DialClient(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return c, rc
}

// startGatewayAddr boots an n-node cluster, fronts node 0 with a RESP
// server at the given level, and returns the server's address.
func startGatewayAddr(t *testing.T, n int, cfg Config, lvl Level) (*Cluster, string) {
	t.Helper()
	c, err := StartCluster(n, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	srv := resp.NewServer(c.Nodes[0].RESPBackend(lvl))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return c, ln.Addr().String()
}

func do(t *testing.T, rc *resp.Client, args ...string) resp.Reply {
	t.Helper()
	r, err := rc.Do(args...)
	if err != nil {
		t.Fatal(err)
	}
	if e := r.Err(); e != nil {
		t.Fatal(e)
	}
	return r
}

func TestGatewayEndToEnd(t *testing.T) {
	// Quorum so the SET→GET assertions have read-your-writes; CL=ONE does
	// not promise the next read sees the write (the native-client loop
	// below polls for exactly that reason).
	c, rc := startGateway(t, 3, Config{Seed: 91}, Quorum)

	if r := do(t, rc, "PING"); r.Str != "PONG" {
		t.Fatalf("PING = %+v", r)
	}
	if r := do(t, rc, "SET", "k1", "v1"); r.Str != "OK" {
		t.Fatalf("SET = %+v", r)
	}
	if r := do(t, rc, "GET", "k1"); r.Str != "v1" || r.IsNil {
		t.Fatalf("GET = %+v", r)
	}
	// The write went through the real replication path: readable through the
	// native client via another coordinator.
	cl, err := Dial(c.Addrs()[1:])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(time.Second)
	for {
		val, ok, err := cl.Get("k1")
		if err != nil {
			t.Fatal(err)
		}
		if ok && string(val) == "v1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("k1 not visible via native client: %q %v", val, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Miss vs empty, through the full coordinated read path.
	if r := do(t, rc, "GET", "never-set"); !r.IsNil {
		t.Fatalf("GET missing = %+v, want nil", r)
	}
	do(t, rc, "SET", "empty", "")
	if r := do(t, rc, "GET", "empty"); r.IsNil || r.Str != "" {
		t.Fatalf("GET empty = %+v, want zero-length bulk", r)
	}

	// DEL: present key counts, absent key does not, and the tombstone wins.
	if r := do(t, rc, "DEL", "k1", "never-set"); r.Int != 1 {
		t.Fatalf("DEL = %+v, want 1", r)
	}
	if r := do(t, rc, "GET", "k1"); !r.IsNil {
		t.Fatalf("GET after DEL = %+v, want nil", r)
	}

	// MSET/MGET through the batch paths, empty value kept distinct from miss.
	do(t, rc, "MSET", "b1", "x", "b2", "", "b3", "zz")
	r := do(t, rc, "MGET", "b1", "b2", "missing", "b3")
	if len(r.Elems) != 4 {
		t.Fatalf("MGET elems = %d", len(r.Elems))
	}
	if r.Elems[0].Str != "x" || r.Elems[0].IsNil {
		t.Fatalf("MGET[0] = %+v", r.Elems[0])
	}
	if r.Elems[1].IsNil || r.Elems[1].Str != "" {
		t.Fatalf("MGET[1] = %+v, want empty bulk", r.Elems[1])
	}
	if !r.Elems[2].IsNil {
		t.Fatalf("MGET[2] = %+v, want nil", r.Elems[2])
	}
	if r.Elems[3].Str != "zz" {
		t.Fatalf("MGET[3] = %+v", r.Elems[3])
	}

	// INFO carries the stats snapshot.
	if r := do(t, rc, "INFO"); !strings.Contains(r.Str, "node_id:0") {
		t.Fatalf("INFO missing node_id: %q", r.Str)
	}
}

func TestGatewayQuorum(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 92}, Quorum)
	do(t, rc, "SET", "qk", "qv")
	if r := do(t, rc, "GET", "qk"); r.Str != "qv" {
		t.Fatalf("GET = %+v", r)
	}
	// A quorum read observes the write immediately (R+W > N).
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	val, ok, err := cl.GetAt("qk", Quorum)
	if err != nil || !ok || string(val) != "qv" {
		t.Fatalf("GetAt = %q %v %v", val, ok, err)
	}
	// Quorum DEL then quorum GET: the tombstone is immediately visible.
	if r := do(t, rc, "DEL", "qk"); r.Int != 1 {
		t.Fatalf("DEL = %+v", r)
	}
	if r := do(t, rc, "GET", "qk"); !r.IsNil {
		t.Fatalf("GET after quorum DEL = %+v", r)
	}
}

// TestGatewayMGetFailsMissedLevel: with two of three replicas down, a
// QUORUM MGET answers the error a GET answers, not its keys as misses.
func TestGatewayMGetFailsMissedLevel(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 98}, Quorum)
	do(t, rc, "SET", "qk", "qv")
	c.Nodes[1].Close()
	c.Nodes[2].Close()
	for _, cmd := range [][]string{{"GET", "qk"}, {"MGET", "qk"}} {
		r, err := rc.Do(cmd...)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != '-' || !strings.Contains(r.Str, "quorum read unavailable") {
			t.Fatalf("%s with 2 of 3 replicas down = %s, want the quorum read error",
				cmd[0], renderReply(r))
		}
	}
}

// TestGatewayDelFailsMissedLevel: a QUORUM DEL whose existence check times
// out answers that error and writes no tombstone, instead of answering 0 and
// deleting anyway.
func TestGatewayDelFailsMissedLevel(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 99, ReadBudget: 60 * time.Millisecond}, Quorum)
	do(t, rc, "SET", "dk", "dv")
	c.Nodes[1].SetSlowdown(300 * time.Millisecond)
	c.Nodes[2].SetSlowdown(300 * time.Millisecond)
	r, err := rc.Do("DEL", "dk")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != '-' || !strings.Contains(r.Str, "timed out") {
		t.Fatalf("DEL with both peers slowed past the read budget = %s, want the read timeout",
			renderReply(r))
	}
	c.Nodes[1].SetSlowdown(0)
	c.Nodes[2].SetSlowdown(0)
	// The slowed reads drain; then the key must still read back.
	deadline := time.Now().Add(3 * time.Second)
	for {
		r, err := rc.Do("GET", "dk")
		if err != nil {
			t.Fatal(err)
		}
		if r.Err() == nil {
			if r.IsNil || r.Str != "dv" {
				t.Fatalf("GET after the failed DEL = %s, want dv", renderReply(r))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET after the failed DEL still fails: %s", renderReply(r))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayOneReadRepairs: a CL=ONE GET through the gateway keeps the
// ladder's background read repair. Node 2 drops a write; GETs at ONE then
// probe the other replicas' versions and write the newest value back to it.
func TestGatewayOneReadRepairs(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 96, ReadRepair: 1}, One)
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// At ALL the write returns only after node 2 refused it.
	c.Nodes[2].SetDropWrites(true)
	cl.PutAt("healme", []byte("v"), All)
	c.Nodes[2].SetDropWrites(false)
	if _, _, ok := c.Nodes[2].Store().GetVersioned(nil, "healme"); ok {
		t.Fatal("node 2 holds the key it was made to drop")
	}
	coord := c.Nodes[0]
	before := coord.StatsSnapshot()
	deadline := time.Now().Add(3 * time.Second)
	for {
		do(t, rc, "GET", "healme")
		if v, _, ok := c.Nodes[2].Store().GetVersioned(nil, "healme"); ok && string(v) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CL=ONE GETs never repaired the replica that dropped the write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := coord.StatsSnapshot()
	if after.Repairs == before.Repairs || after.DigestReads == before.DigestReads {
		t.Fatalf("repairs %d -> %d, digest reads %d -> %d: the heal did not come from a version-only probe",
			before.Repairs, after.Repairs, before.DigestReads, after.DigestReads)
	}
}

// TestGatewayOneDelChecksVersionsOnly: DEL's existence check is version-only
// at CL=ONE too — digests, no data read — and the reply still counts the
// keys that existed.
func TestGatewayOneDelChecksVersionsOnly(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 97, ReadRepair: -1}, One)
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PutAt("gone", []byte("v"), All); err != nil {
		t.Fatal(err)
	}
	coord := c.Nodes[0]
	before := coord.StatsSnapshot()
	if r := do(t, rc, "DEL", "gone", "never-set"); r.Int != 1 {
		t.Fatalf("DEL = %+v, want 1", r)
	}
	after := coord.StatsSnapshot()
	if d := after.ReplicaReads - before.ReplicaReads; d != 0 {
		t.Fatalf("DEL at ONE sent %d data reads, want none", d)
	}
	if d := after.DigestReads - before.DigestReads; d < 2 {
		t.Fatalf("DEL at ONE sent %d digests, want one per key", d)
	}
}

// TestDeleteReplicates pins the native-client delete path: a DeleteAt at
// QUORUM makes the key unreadable at QUORUM via any coordinator.
func TestDeleteReplicates(t *testing.T) {
	_, cl := startTestCluster(t, 3, Config{Seed: 93})
	if err := cl.PutAt("dk", []byte("dv"), Quorum); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteAt("dk", Quorum); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.GetAt("dk", Quorum); err != nil || ok {
		t.Fatalf("GetAt after delete: found=%v err=%v", ok, err)
	}
	// Deleting an already-absent key is a guarded no-op, not an error.
	if err := cl.Delete("dk"); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayOpsEndpoint drives traffic through the gateway and asserts the
// ops surface exposes live per-peer C3 signals and coordinator counters.
func TestGatewayOpsEndpoint(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 94}, One)
	node := c.Nodes[0]
	ops := httptest.NewServer(obs.Handler(func() any { return node.StatsSnapshot() }))
	defer ops.Close()

	for i := 0; i < 64; i++ {
		do(t, rc, "SET", fmt.Sprintf("ok%d", i), "v")
		do(t, rc, "GET", fmt.Sprintf("ok%d", i))
	}
	do(t, rc, "DEL", "ok0")

	resp, err := http.Get(ops.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars struct {
		Node NodeStats `json:"node"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars: %v\n%s", err, body)
	}
	st := vars.Node
	if st.ReadsCoordinated == 0 {
		t.Fatalf("reads_coordinated = 0 after traffic: %+v", st)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peers = %d, want 3", len(st.Peers))
	}
	for _, p := range st.Peers {
		if p.QHat < 1 {
			t.Fatalf("peer %d qhat = %v, want >= 1", p.ID, p.QHat)
		}
	}
	if len(st.Shards) == 0 {
		t.Fatal("no shard stats")
	}
	if st.Store.Puts == 0 {
		t.Fatalf("store puts = 0 after traffic")
	}
	if st.ReplicaReads == 0 {
		t.Fatalf("replica_reads = 0 after GETs and a DEL")
	}
	if info := node.StatsSnapshot().InfoText(); !strings.Contains(info, "replica_reads:") ||
		!strings.Contains(info, "digest_reads:") || !strings.Contains(info, "digest_fetches:") {
		t.Fatalf("INFO lacks the read counters:\n%s", info)
	}

	// Quiescence: with no in-flight commands, outstanding must drain to 0 —
	// the residual-accounting check the CI smoke repeats.
	deadline := time.Now().Add(2 * time.Second)
	for {
		total := 0.0
		for _, p := range node.StatsSnapshot().Peers {
			total += p.Outstanding
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("outstanding residual %v after quiescence", total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsSnapshotRace hammers StatsSnapshot concurrently with a chaos
// workload (mixed-level puts/gets/deletes, slowdown and drop-writes toggles)
// so `go test -race` can catch torn reads in the snapshot path.
func TestStatsSnapshotRace(t *testing.T) {
	c, err := StartCluster(3, Config{Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Chaos workload: writes, reads, deletes at mixed levels + fault toggles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lvls := []Level{One, Quorum}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("rk%d", i%64)
			lvl := lvls[i%2]
			switch i % 5 {
			case 0, 1:
				cl.PutAt(key, []byte("v"), lvl)
			case 2, 3:
				cl.GetAt(key, lvl)
			case 4:
				cl.DeleteAt(key, lvl)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Nodes[1].SetSlowdown(time.Duration(i%3) * time.Millisecond)
			c.Nodes[2].SetDropWrites(i%4 == 0)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The snapshot hammer: every node, concurrently, plus JSON encoding (the
	// obs handler's actual read pattern).
	for _, n := range c.Nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := n.StatsSnapshot()
				if _, err := json.Marshal(st); err != nil {
					t.Errorf("snapshot not marshalable: %v", err)
					return
				}
			}
		}()
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Nodes[1].SetSlowdown(0)
	c.Nodes[2].SetDropWrites(false)
}

// TestGatewayPipelinedReadYourWrites sends one pipelined stream of writes and
// reads over a few shared keys to a QUORUM gateway. The server runs the
// stream's commands concurrently, yet every reply matches a model that
// applies the commands one by one: each read sees the connection's earlier
// writes. The stream has no DEL: an applied tombstone is unversioned, so a
// quorum read can still lose it to a lagging replica's older value (the
// tombstone gap, which versioned tombstones close).
func TestGatewayPipelinedReadYourWrites(t *testing.T) {
	_, addr := startGatewayAddr(t, 3, Config{Seed: 98}, Quorum)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))

	rng := rand.New(rand.NewPCG(98, 0))
	model := map[string]string{}
	key := func() string { return fmt.Sprintf("pk%d", rng.IntN(6)) }
	bulk := func(k string) string {
		if v, ok := model[k]; ok {
			return v
		}
		return "(nil)"
	}
	var req []byte
	var want []string
	for i := 0; i < 300; i++ {
		var args []string
		switch op := rng.IntN(10); {
		case op < 3:
			k, v := key(), fmt.Sprintf("v%d", i)
			args = []string{"SET", k, v}
			model[k] = v
			want = append(want, "OK")
		case op < 6:
			k := key()
			args = []string{"GET", k}
			want = append(want, bulk(k))
		case op < 8:
			args = []string{"MSET"}
			for j := 0; j < 3; j++ {
				k, v := key(), fmt.Sprintf("m%d.%d", i, j)
				args = append(args, k, v)
				model[k] = v
			}
			want = append(want, "OK")
		default:
			args = []string{"MGET"}
			var vals []string
			for j := 0; j < 3; j++ {
				k := key()
				args = append(args, k)
				vals = append(vals, bulk(k))
			}
			want = append(want, "["+strings.Join(vals, " ")+"]")
		}
		b := make([][]byte, len(args))
		for j, a := range args {
			b[j] = []byte(a)
		}
		req = resp.AppendCommand(req, b)
	}
	go conn.Write(req) // the server may push back before the whole stream is in

	br := bufio.NewReader(conn)
	for i, w := range want {
		r, err := resp.ReadReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := renderReply(r); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
}

// TestGatewayMSetBatchRules: an MSET that names a key twice leaves its last
// value on every replica, and MGET and MSET over wire.MaxBatchKeys keys are
// refused quickly, with nothing written.
func TestGatewayMSetBatchRules(t *testing.T) {
	c, rc := startGateway(t, 3, Config{Seed: 99}, All)
	do(t, rc, "MSET", "d", "first", "e", "x", "d", "last")
	for _, n := range c.Nodes {
		if v, _, ok := n.store.GetVersioned(nil, "d"); !ok || string(v) != "last" {
			t.Fatalf("node %d: d = %q (found %v), want \"last\"", n.id, v, ok)
		}
	}

	const over = wire.MaxBatchKeys + 1
	mset, mget := []string{"MSET"}, []string{"MGET"}
	for i := 0; i < over; i++ {
		k := fmt.Sprintf("big%d", i)
		mset, mget = append(mset, k, "v"), append(mget, k)
	}
	want := fmt.Sprintf("-ERR batch exceeds %d keys", wire.MaxBatchKeys)
	for _, args := range [][]string{mset, mget} {
		start := time.Now()
		r, err := rc.Do(args...)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReply(r); got != want {
			t.Fatalf("%s of %d keys: reply %q, want %q", args[0], over, got, want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s of %d keys took %v to refuse", args[0], over, d)
		}
	}
	if r := do(t, rc, "GET", "big0"); !r.IsNil {
		t.Fatalf("GET big0 = %q after a refused MSET", renderReply(r))
	}
}

// renderReply flattens a reply: a bulk or status as its string, nil as
// "(nil)", an integer in decimal, an array as its elements in brackets.
func renderReply(r resp.Reply) string {
	switch {
	case r.IsNil:
		return "(nil)"
	case r.Kind == '-':
		return "-" + r.Str
	case r.Kind == ':':
		return fmt.Sprint(r.Int)
	case r.Kind == '*':
		var parts []string
		for _, e := range r.Elems {
			parts = append(parts, renderReply(e))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return r.Str
}
