package kvstore

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/wire"
)

// fakeReplica serves MsgReadInternal/MsgWriteInternal on conn. Read values
// are produced by val(key); a nil val echoes the key bytes. It exits on the
// first connection error.
func fakeReplica(conn net.Conn, val func(key string, dst []byte) []byte) {
	defer conn.Close()
	r := wire.NewReader(conn)
	var frame []byte
	var scratch []byte
	for {
		typ, payload, err := r.Next()
		if err != nil {
			return
		}
		var b []byte
		switch typ {
		case wire.MsgReadInternal, wire.MsgRead:
			m, err := wire.ParseReadReq(payload)
			if err != nil {
				return
			}
			if val != nil {
				scratch = val(m.Key, scratch[:0])
			} else {
				scratch = append(scratch[:0], m.Key...)
			}
			b, err = wire.AppendReadResp(frame[:0], wire.ReadResp{ID: m.ID, Found: true, Value: scratch})
			if err != nil {
				return
			}
		case wire.MsgWriteInternal, wire.MsgWrite:
			m, err := wire.ParseWriteReq(payload)
			if err != nil {
				return
			}
			b, err = wire.AppendWriteResp(frame[:0], wire.WriteResp{ID: m.ID, OK: true})
			if err != nil {
				return
			}
		default:
			return
		}
		frame = b[:0]
		if _, err := conn.Write(b); err != nil {
			return
		}
	}
}

// TestRPCConnRoundTripZeroAllocs is the client half of the PR's allocation
// budget: a steady-state pipelined RPC round trip — pooled call record,
// pooled request frame, sharded pending table, value appended into the
// caller's buffer — performs zero heap allocations.
func TestRPCConnRoundTripZeroAllocs(t *testing.T) {
	client, server := net.Pipe()
	fixed := []byte("fixed-value-0123456789")
	go fakeReplica(server, func(_ string, dst []byte) []byte { return append(dst, fixed...) })
	p := newRPCConn(client)
	defer p.close()

	dst := make([]byte, 0, 256)
	read := func() {
		resp, err := p.readTyped(wire.MsgReadInternal, wire.ReadReq{Key: "steady-key"}, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found || len(resp.Value) != len(fixed) {
			t.Fatalf("resp = %+v", resp)
		}
		dst = resp.Value[:0]
	}
	write := func() {
		if _, err := p.write("steady-key", fixed, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
		write()
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on channel handoffs")
	}
	if n := testing.AllocsPerRun(300, read); n > 0 {
		t.Errorf("read round trip allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(300, write); n > 0 {
		t.Errorf("write round trip allocates %.1f/op, want 0", n)
	}
}

// TestClusterReadAllocBudget pins the end-to-end point-read allocation
// budget over a live durable cluster: client, coordinator, and replica share
// the process, so AllocsPerRun (which reads whole-process malloc counters)
// charges the entire serving path to each Get. A CL=ONE Get is the read
// ladder as a batch of one, and it may take at most 3 allocs/op both with
// read repair off and with every read probing the rest of its group: probes
// are pooled legs like any other, with no goroutine and no key or group
// copy. The floor leaves headroom for background flush/compaction noise,
// and any regression above it fails here before it shows up in
// BENCH_kv.json.
func TestClusterReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on channel handoffs")
	}
	for _, repair := range []float64{-1, 1} {
		if n := pointReadAllocs(t, repair); n > 3 {
			t.Errorf("cluster point read (ReadRepair %v) allocates %.2f/op, want <= 3", repair, n)
		}
	}
}

// pointReadAllocs measures a CL=ONE Get's allocations on a live durable
// 3-node cluster with the given read-repair probability.
func pointReadAllocs(t *testing.T, repair float64) float64 {
	c, err := StartCluster(3, Config{Seed: 7, ReadRepair: repair, DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Close()
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const nKeys = 64
	val := []byte("alloc-budget-value-0123456789abcdef")
	for i := 0; i < nKeys; i++ {
		// At ALL: the measured CL=ONE reads may land on any replica.
		if err := cl.PutAt(fmt.Sprintf("alloc-key-%03d", i), val, All); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%03d", i)
	}
	i := 0
	get := func() {
		k := keys[i%nKeys]
		i++
		if _, ok, err := cl.Get(k); err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
	}
	for j := 0; j < 128; j++ {
		get() // warm pools and buffer growth out of the measurement
	}
	return testing.AllocsPerRun(500, get)
}

// TestClusterWriteAllocBudget is the write twin of TestClusterReadAllocBudget:
// a QUORUM PutAt and an 8-key QUORUM MultiPutAt through the client on a live
// 3-node cluster, in memory and durable, with client, coordinator fan-out and
// every replica's apply charged to each op, both through the one write
// coordinator. The point write may not exceed 1 alloc/op and the batch 14;
// both shapes measure 0 and 12 in memory and durable alike. They took 6 and
// 42 in memory and 12 and 54 durable while every replica cloned its keys and
// the store allocated a value arena, plus a commit group and its channel per
// touched shard. A write's keys now ride in the pooled buffer that carries
// its values, and the store copies each record into its memtable slot. On a
// 3-node RF=3 ring every key shares one write fan, so the batch is one
// sub-batch, two async frames and one local apply; what it still allocates
// is the key and value columns of each node's pooled copy, the coordinator's
// per-key acks, the client's ack slice, and the goroutines of the
// coordinator's local leg and of each replica's apply. The shard count is
// fixed because a batch applies per touched shard.
func TestClusterWriteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on channel handoffs")
	}
	for _, durable := range []bool{false, true} {
		name := "inmem"
		cfg := Config{Seed: 8, ReadRepair: -1, Shards: 2}
		if durable {
			name, cfg.DataDir = "durable", t.TempDir()
		}
		t.Run(name, func(t *testing.T) { clusterWriteAllocs(t, cfg) })
	}
}

func clusterWriteAllocs(t *testing.T, cfg Config) {
	c, err := StartCluster(3, cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Close()
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	val := []byte("alloc-budget-value-0123456789abcdef")
	put := func() {
		if err := cl.PutAt("alloc-put", val, Quorum); err != nil {
			t.Fatalf("PutAt: %v", err)
		}
	}
	keys, vals := batchKeysVals("alloc-batch", 8)
	mput := func() {
		if _, err := cl.MultiPutAt(keys, vals, Quorum); err != nil {
			t.Fatalf("MultiPutAt: %v", err)
		}
	}
	for j := 0; j < 128; j++ {
		put() // warm pools and buffer growth out of the measurement
		mput()
	}
	if n := testing.AllocsPerRun(500, put); n > 1 {
		t.Errorf("cluster QUORUM point write allocates %.2f/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(500, mput); n > 14 {
		t.Errorf("cluster QUORUM 8-key batch write allocates %.2f/op, want <= 14", n)
	}
}

// TestClusterQuorumReadAllocBudget pins the quorum read ladder's allocation
// shape over a live durable 3-node cluster (2 shards, 256 B values), with
// client, coordinator and every replica charged to each op: a QUORUM GetAt
// may take at most 5 allocs/op and an 8-key QUORUM MultiGetAt at most 50.
// A quorum read is one data read to the C3-best replica plus version-only
// digests to the next R-1, on pooled call records — no goroutine, channel or
// value copy per replica — and partitioning a batch allocates nothing per key.
func TestClusterQuorumReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on channel handoffs")
	}
	c, err := StartCluster(3, Config{Seed: 9, ReadRepair: -1, Shards: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Close()
	cl, err := Dial(c.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	const nKeys = 64
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("qalloc-key-%03d", i)
		if err := cl.PutAt(keys[i], val, All); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	i := 0
	get := func() {
		k := keys[i%nKeys]
		i++
		if v, ok, err := cl.GetAt(k, Quorum); err != nil || !ok || len(v) != len(val) {
			t.Fatalf("GetAt(%s): ok=%v err=%v", k, ok, err)
		}
	}
	batch := keys[:8]
	mget := func() {
		_, found, err := cl.MultiGetAt(batch, Quorum)
		if err != nil {
			t.Fatalf("MultiGetAt: %v", err)
		}
		for j, ok := range found {
			if !ok {
				t.Fatalf("MultiGetAt: key %s missing", batch[j])
			}
		}
	}
	for j := 0; j < 128; j++ {
		get() // warm pools and buffer growth out of the measurement
		mget()
	}
	if n := testing.AllocsPerRun(500, get); n > 5 {
		t.Errorf("cluster QUORUM point read allocates %.2f/op, want <= 5", n)
	}
	if n := testing.AllocsPerRun(500, mget); n > 50 {
		t.Errorf("cluster QUORUM 8-key batch read allocates %.2f/op, want <= 50", n)
	}
}

// TestRPCConnPoolReuseUnderFailure hammers connections with concurrent
// reads while killing the transport mid-flight, across enough rounds that
// call records recycle through the pool between failures. Every read must
// either fail with the connection error or return exactly the value for its
// own key — a response delivered to a recycled waiter would surface as a
// mismatched value or a stale wakeup panic.
func TestRPCConnPoolReuseUnderFailure(t *testing.T) {
	const rounds = 25
	const workers = 8
	for round := 0; round < rounds; round++ {
		client, server := net.Pipe()
		go fakeReplica(server, nil) // echo the key back as the value
		p := newRPCConn(client)

		var wg sync.WaitGroup
		var okOps, failedOps atomic.Uint64
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					key := fmt.Sprintf("r%d-g%d-i%d", round, g, i)
					resp, err := p.readTyped(wire.MsgReadInternal, wire.ReadReq{Key: key}, nil)
					if err != nil {
						failedOps.Add(1)
						return
					}
					if string(resp.Value) != key {
						t.Errorf("read %q returned %q: response crossed to the wrong waiter", key, resp.Value)
						return
					}
					okOps.Add(1)
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		server.Close() // fail the transport mid-flight
		wg.Wait()
		if !p.dead() {
			t.Fatal("connection not marked dead after transport failure")
		}
		if _, err := p.readTyped(wire.MsgReadInternal, wire.ReadReq{Key: "post-mortem"}, nil); err == nil {
			t.Fatal("read on dead connection succeeded")
		}
		p.close()
		if failedOps.Load() == 0 {
			t.Fatalf("round %d: no operation observed the failure", round)
		}
	}
}

// TestRPCConnConcurrentPipelining: many goroutines multiplex one connection
// and each gets its own answer back.
func TestRPCConnConcurrentPipelining(t *testing.T) {
	client, server := net.Pipe()
	go fakeReplica(server, nil)
	p := newRPCConn(client)
	defer p.close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := p.readTyped(wire.MsgReadInternal, wire.ReadReq{Key: key}, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if string(resp.Value) != key {
					t.Errorf("read %q got %q", key, resp.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStartNodeWithListener: a pre-bound listener is adopted as-is — no
// close-and-rebind race.
func TestStartNodeWithListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	n, err := StartNodeWithListener(0, []string{addr}, ln, Config{RF: 1, Seed: 3})
	if err != nil {
		t.Fatalf("StartNodeWithListener: %v", err)
	}
	t.Cleanup(n.Close)
	if n.Addr() != addr {
		t.Fatalf("node rebound: %s != %s", n.Addr(), addr)
	}
	cl, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}

	// Out-of-range ids still close the handed-over listener.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartNodeWithListener(5, []string{ln2.Addr().String()}, ln2, Config{}); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
	if err := ln2.Close(); err == nil {
		t.Fatal("listener not closed on argument error")
	}
}
