// Package kvstore is a real, networked replicated key-value store built on
// the substrates in this repository: loopback/LAN TCP with the wire protocol,
// the LSM storage engine, the Murmur3 token ring, and — the point of the
// exercise — the identical internal/core replica-selection code that drives
// the simulators. Every node is both a storage replica and a coordinator
// (exactly Cassandra's architecture in §4): client requests land on any
// node, the coordinator ranks the key's replica group with C3 (or a baseline
// strategy), applies per-server cubic rate limiting with backpressure, and
// forwards the read to the chosen replica. Responses piggyback queue-size
// and service-time feedback.
package kvstore

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/core"
	"c3/internal/lsm"
	"c3/internal/ratelimit"
	"c3/internal/sim"
	"c3/internal/wire"
)

// Strategy names for coordinators.
const (
	StratC3  = "C3"
	StratLOR = "LOR"
	StratRR  = "RR"
	StratRND = "RND"
)

// Config configures a node.
type Config struct {
	// RF is the replication factor (default 3).
	RF int
	// Strategy selects the coordinator's replica-selection policy
	// (default C3).
	Strategy string
	// Rate configures C3's rate controller.
	Rate ratelimit.Config
	// ReadDelayMean adds an exponentially distributed artificial storage
	// delay per replica read — the stand-in for disk seeks when the
	// store runs entirely in memory. Zero disables it.
	ReadDelayMean time.Duration
	// ReadRepair is the probability a read is broadcast to every replica
	// (Cassandra's anti-entropy read repair, 10% by default). Beyond
	// consistency, it is what keeps coordinators' views of currently
	// unselected replicas fresh — without it, a replica that turned slow
	// and was abandoned would never be observed recovering. Negative
	// disables it.
	ReadRepair float64
	// BackpressureTimeout bounds how long a coordinator holds a request
	// waiting for a rate token before failing open (default 2s).
	BackpressureTimeout time.Duration
	// ReadBudget bounds how long a coordinated read may spend across its
	// primary replica, hedges, and failure-path retries once dispatched
	// (default 2s). A read that exhausts its budget reports not-found; the
	// in-flight replica requests are reaped in the background with their
	// accounting intact.
	ReadBudget time.Duration
	// Hedge configures speculative (hedged) reads — the tail-tolerance
	// layer. Enabled by default; see HedgeConfig.
	Hedge HedgeConfig
	// Store tunes the LSM engine. When a node is durable (DataDir or
	// Store.Dir set) and Store.SyncInterval is zero, the node defaults to
	// periodic WAL sync every 20ms; set it negative to force strict
	// fsync-per-commit-group acks.
	Store lsm.Options
	// DataDir, when non-empty, makes every node's storage durable: node id
	// stores under <DataDir>/node-<id> (WAL + SSTs + manifest), and a node
	// restarted with the same id and DataDir recovers every acknowledged
	// write. Empty keeps storage in memory. Setting Store.Dir directly also
	// works for a single hand-built node; DataDir is the per-node derivation
	// used when one Config boots a whole cluster.
	DataDir string
	// HintCap bounds the hinted-handoff queue per down peer (records, not
	// bytes): writes toward an unreachable replica are banked up to this many
	// hints and replayed with backoff once the peer returns. Zero means the
	// default (512); negative disables handoff entirely. When a peer is down
	// AND its hint queue is full, quorum-level writes covering it fail with
	// StatusQuorumUnavailable instead of growing the debt without bound.
	HintCap int
	// Shards partitions the node's storage and request handling into
	// consistent-hash sub-shards, each with its own memtable, WAL,
	// writer goroutine, queue accounting, and ranker scratch state —
	// unrelated keys never share a lock or an fsync group. Zero means
	// runtime.GOMAXPROCS(0); 1 reproduces the unsharded single-store
	// layout. A durable directory remembers its shard count: reopening
	// it ignores a different setting rather than scattering the data.
	Shards int
	// Seed drives the node's randomness.
	Seed uint64
}

// HedgeConfig tunes speculative reads. After an adaptive delay — the
// coordinator's smoothed replica-read RTT plus 3.5 deviations (RFC 6298
// estimators, ≈ a p93 latency estimate; see hedgeDelay) — a read still
// waiting on its primary replica is duplicated to the next-best-ranked
// replica and the first response wins. Both replicas' responses still feed the ranker, so a hedge
// doubles as a freshness probe of a replica the coordinator had stopped
// selecting. This is the layer Cassandra pairs with replica selection as
// "speculative retry" (and the paper's §8 reissues atop C3).
type HedgeConfig struct {
	// Disabled turns speculative reads off. Reads then ride on their
	// primary replica alone until it responds, fails (failing over to the
	// next-ranked replica), or the read budget expires.
	Disabled bool
	// MinDelay floors the adaptive hedge delay (default 250µs), bounding
	// duplicate load when the RTT estimate collapses on a fast LAN.
	MinDelay time.Duration
	// MaxDelay caps the adaptive hedge delay (default 50ms) and is also
	// the delay used before the first RTT observation.
	MaxDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.RF <= 0 {
		c.RF = 3
	}
	if c.Strategy == "" {
		c.Strategy = StratC3
	}
	if c.BackpressureTimeout <= 0 {
		c.BackpressureTimeout = 2 * time.Second
	}
	if c.ReadBudget <= 0 {
		c.ReadBudget = 2 * time.Second
	}
	if c.Hedge.MinDelay <= 0 {
		c.Hedge.MinDelay = 250 * time.Microsecond
	}
	if c.Hedge.MaxDelay <= 0 {
		c.Hedge.MaxDelay = 50 * time.Millisecond
	}
	if c.ReadRepair == 0 {
		c.ReadRepair = 0.1
	} else if c.ReadRepair < 0 {
		c.ReadRepair = 0
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	return c
}

// Node is one store process: TCP listener, storage engine, coordinator.
type Node struct {
	id  core.ServerID
	cfg Config

	// topo is the node's current versioned topology (ring, addresses,
	// dual-route window). The hot path snapshots it with one atomic load;
	// adoption installs immutable successors under memberMu.
	topo     atomic.Pointer[topology]
	memberMu sync.Mutex // serializes topology adoption and membership ops
	reg      *core.Registry

	store *lsm.Sharded
	ln    net.Listener

	// Per-shard coordinator and replica state, all indexed by the storage
	// shard of a key: sels holds one selection client per shard (padded
	// slots over one shared registry — the ranker's dense scratch becomes a
	// [shard][denseIndex] slice-of-slices), st the padded replica-side
	// accounting and write queues.
	sels  *core.ShardedClients
	st    []shardSt
	readq chan *readTask // unbuffered rendezvous with the read workers

	peersMu sync.RWMutex
	peers   []*peerSlot // outbound RPC links, indexed by peer node id; grown on adoption

	scan streamScan // per-arc live-key snapshot serving membership pulls

	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // inbound connections, closed on shutdown

	slowNs atomic.Int64 // injected extra delay per read (demos/tests)

	// Smoothed replica-read RTT driving the adaptive hedge delay (see
	// hedgeDelay; RFC 6298 estimators). CAS-free like svcNs: concurrent
	// updates only blur the estimate.
	srttNs   atomic.Uint64
	rttvarNs atomic.Uint64

	served      atomic.Uint64 // reads served by this node's storage
	coord       atomic.Uint64 // reads coordinated by this node
	waited      atomic.Uint64 // reads that hit backpressure at this coordinator
	hedgeWins   atomic.Uint64 // reads answered by their hedge, not their primary
	writeFails  atomic.Uint64 // coordinated keys no replica acknowledged
	repairs     atomic.Uint64 // version-guarded read-repair write-backs issued
	quorumFails atomic.Uint64 // coordinated ops that missed their consistency level

	hlc        atomic.Uint64 // HLC version-stamp state (see stampVersion)
	hints      *hintStore    // per-peer handoff queues; nil when disabled
	dropWrites atomic.Bool   // fault injection: reject replica-local writes

	rngMu sync.Mutex
	rng   *rand.Rand

	closed  chan struct{}
	wg      sync.WaitGroup
	closing sync.Once
}

// shardSt is one shard's replica-side hot state: the queue-size and
// service-time feedback the shard's reads sample, and the shard writer's
// task queue. Padded to a cache-line pair so two shards' counters — updated
// concurrently on a multi-core node — never false-share.
type shardSt struct {
	pendingReads atomic.Int64  // queue-size feedback, this shard's keys only
	svcNs        atomic.Uint64 // smoothed per-read service time
	wq           chan *writeTask
	_            [104]byte
}

var errWriteDropped = errors.New("kvstore: write dropped by fault injection")

// shardOf routes a key to its shard — identical on every node (the hash has
// no per-node salt), so a coordinator's shard-s selector observes exactly
// the replicas' shard-s queues.
func (n *Node) shardOf(key string) int { return n.store.ShardFor(key) }

// selFor is the selection client owning key's shard.
func (n *Node) selFor(key string) *core.Client { return n.sels.Shard(n.store.ShardFor(key)) }

// feedbackAt samples shard sh's C3 feedback fields — what this shard's read
// responses piggyback.
func (n *Node) feedbackAt(sh int) wire.Feedback {
	return wire.Feedback{
		QueueSize: float64(n.st[sh].pendingReads.Load()),
		ServiceNs: int64(n.st[sh].svcNs.Load()),
	}
}

// newRanker builds the strategy for a coordinator in a cluster of the given
// size (C3's concurrency weight w = number of coordinating clients = nodes).
// The registry carries the cluster's dense server index; the returned
// ranker (and the Client built on it) key all per-server state by it.
func newRanker(strategy string, reg *core.Registry, nodes int, seed uint64) (core.Ranker, bool) {
	switch strategy {
	case StratC3:
		return core.NewCubicRanker(core.RankerConfig{
			ConcurrencyWeight: float64(nodes),
			Seed:              seed,
			Registry:          reg,
		}), true
	case StratLOR:
		return core.NewLOR(reg, seed), false
	case StratRR:
		return core.NewRoundRobin(reg), true
	case StratRND:
		return core.NewRandom(seed), false
	default:
		panic("kvstore: unknown strategy " + strategy)
	}
}

// StartNode launches node id of a cluster whose node addresses are addrs
// (addrs[id] must be this node's address to listen on; use "127.0.0.1:0"
// and read back Addr for tests).
func StartNode(id int, addrs []string, cfg Config) (*Node, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("kvstore: node id %d outside cluster of %d", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, err
	}
	return StartNodeWithListener(id, addrs, ln, cfg)
}

// StartNodeWithListener launches node id on an already-bound listener —
// the race-free path for harnesses that reserve every port up front
// (StartCluster) instead of closing and re-binding. The node takes
// ownership of ln.
func StartNodeWithListener(id int, addrs []string, ln net.Listener, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if id < 0 || id >= len(addrs) {
		ln.Close()
		return nil, fmt.Errorf("kvstore: node id %d outside cluster of %d", id, len(addrs))
	}
	addrs = append([]string(nil), addrs...)
	addrs[id] = ln.Addr().String()
	t, err := bootTopology(addrs, cfg.RF)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return newNode(core.ServerID(id), t, ln, cfg)
}

// newNode assembles and starts a node from an adopted topology — the shared
// tail of StartNodeWithListener (epoch-0 boot) and JoinCluster (a live join
// at the epoch the cluster assigned). With durability configured it opens
// (and, after a crash, recovers) the node's storage directory before
// accepting any traffic.
func newNode(id core.ServerID, t *topology, ln net.Listener, cfg Config) (*Node, error) {
	st := cfg.Store
	if cfg.DataDir != "" {
		st.Dir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", id))
	}
	if st.Dir != "" && st.FlushBytes == 0 {
		// Server-grade memtable: the lsm package default (4 MiB) is sized
		// for tests; a serving node amortizes flush pauses over 32 MiB.
		st.FlushBytes = 32 << 20
	}
	if st.Dir != "" && st.SyncInterval == 0 {
		// Default to periodic WAL sync (Cassandra's commitlog trade): acks
		// wait for write(2), not fsync, so the serving hot path keeps its
		// throughput; a background fsync every 20ms bounds the power-loss
		// window. Acked writes still survive kill -9 — the page cache
		// outlives the process. Set Store.SyncInterval negative for strict
		// fsync-per-commit-group.
		st.SyncInterval = 20 * time.Millisecond
	}
	if st.SyncInterval < 0 {
		st.SyncInterval = 0
	}
	store, err := lsm.OpenSharded(st, cfg.Shards)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("kvstore: open store for node %d: %w", id, err)
	}
	// A durable directory's persisted shard count wins over the config (see
	// lsm.OpenSharded); everything downstream sizes off the store.
	shards := store.ShardCount()
	// Pre-register the whole cluster view so steady-state selection never
	// takes the registry's intern slow path; later adoptions intern joiners
	// on the same registry, extending every ranker's dense state in place.
	members := t.v.Members()
	reg := core.NewRegistry(members...)
	n := &Node{
		id:    id,
		cfg:   cfg,
		reg:   reg,
		store: store,
		ln:    ln,
		// One selection client per shard over the shared registry: C3's
		// concurrency weight counts coordinating clients, which sharding
		// multiplies. Each shard's ranker gets its own seed so tie-breaks
		// decorrelate across shards.
		sels: core.NewShardedClients(shards, func(sh int) *core.Client {
			ranker, rc := newRanker(cfg.Strategy, reg, len(members)*shards,
				cfg.Seed^uint64(id)<<8^uint64(sh)*0x9e3779b97f4a7c15)
			return core.NewClient(ranker, core.ClientConfig{RateControl: rc, Rate: cfg.Rate})
		}),
		st:     make([]shardSt, shards),
		readq:  make(chan *readTask),
		peers:  make([]*peerSlot, len(t.addrs)),
		conns:  make(map[net.Conn]struct{}),
		rng:    sim.RNG(cfg.Seed, 0xfeed+uint64(id)),
		closed: make(chan struct{}),
	}
	n.topo.Store(t)
	for sh := range n.st {
		n.st[sh].svcNs.Store(uint64(time.Millisecond)) // prior before first read
		n.st[sh].wq = make(chan *writeTask, writeQueueDepth)
	}
	if n.hints, err = openHints(n, st.Dir, cfg.HintCap); err != nil {
		store.Close()
		ln.Close()
		return nil, fmt.Errorf("kvstore: open hint log for node %d: %w", id, err)
	}
	for sh := range n.st {
		n.wg.Add(1)
		go n.writeWorker(sh)
	}
	for i := 0; i < readWorkerCount(shards); i++ {
		n.wg.Add(1)
		go n.readWorker()
	}
	n.wg.Add(1)
	go n.acceptLoop()
	if n.hints != nil {
		n.hints.kickAll() // resume delivery of hints recovered from disk
	}
	return n, nil
}

// Addr reports the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID reports the node's cluster id.
func (n *Node) ID() int { return int(n.id) }

// Store exposes the underlying sharded LSM engine (diagnostics).
func (n *Node) Store() *lsm.Sharded { return n.store }

// Shards reports the node's effective shard count (a durable directory's
// persisted count wins over the config).
func (n *Node) Shards() int { return n.store.ShardCount() }

// ReadsServed reports reads served by this node's storage.
func (n *Node) ReadsServed() uint64 { return n.served.Load() }

// ReadsCoordinated reports reads coordinated by this node.
func (n *Node) ReadsCoordinated() uint64 { return n.coord.Load() }

// BackpressureWaits reports coordinator reads that waited for a rate token.
func (n *Node) BackpressureWaits() uint64 { return n.waited.Load() }

// SetSlowdown injects extra artificial latency per local read — the live
// analogue of the paper's tc-based degradation in Fig. 13.
func (n *Node) SetSlowdown(d time.Duration) { n.slowNs.Store(int64(d)) }

// HedgesIssued reports speculative read duplicates this coordinator fired —
// the numerator of the duplicate-load overhead a deployment watches. The
// count lives in the selector (PickHedge records it); failovers after an
// error go through PickNext and are not counted.
func (n *Node) HedgesIssued() uint64 { return n.sels.HedgesSent() }

// HedgeWins reports coordinated reads that were answered by their hedge
// rather than their primary replica.
func (n *Node) HedgeWins() uint64 { return n.hedgeWins.Load() }

// WriteFailures reports coordinated writes that no replica acknowledged,
// counting each key of a batch.
func (n *Node) WriteFailures() uint64 { return n.writeFails.Load() }

// OutstandingToward reports the selector's in-flight accounting toward a
// peer, summed over shards. Quiescent clusters must report zero for every
// pair — the accounting invariant the failure-scenario tests and the tail
// benchmark assert, which per-shard accounting preserves shard by shard.
func (n *Node) OutstandingToward(peer int) float64 {
	return n.sels.Outstanding(core.ServerID(peer))
}

// SendRateToward exposes the coordinator's current srate toward a peer,
// summed over shards.
func (n *Node) SendRateToward(peer int) float64 {
	return n.sels.SendRate(core.ServerID(peer))
}

// Close shuts the node down cleanly: sever the network, wait for in-flight
// handlers to drain, then close the store (which flushes the memtable and
// fsyncs the WAL tail, so a clean restart replays nothing surprising and no
// descriptors leak).
func (n *Node) Close() {
	n.teardownNetwork()
	n.stopHints()
	n.wg.Wait()
	if n.hints != nil {
		n.hints.close()
	}
	n.store.Close()
}

// stopHints makes the hint store refuse hints and replays, so nothing adds
// to the WaitGroup once the node starts waiting on it.
func (n *Node) stopHints() {
	if n.hints != nil {
		n.hints.stop()
	}
}

// Crash tears the node down the way SIGKILL would — no flush, no final
// fsync, commit groups in flight fail — leaving the data directory in
// whatever state earlier group commits made durable. A node restarted over
// the same directory must recover every acknowledged write; the durability
// chaos tests drive this. Production shutdown is Close.
func (n *Node) Crash() {
	n.teardownNetwork()
	n.stopHints()
	// Fail the store first: handlers blocked waiting on a WAL commit group
	// must unblock (with errors) before wg.Wait can return.
	n.store.Crash()
	n.wg.Wait()
	if n.hints != nil {
		n.hints.close()
	}
}

// teardownNetwork severs the listener and every connection, once.
func (n *Node) teardownNetwork() {
	n.closing.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.peersMu.RLock()
		peers := append([]*peerSlot(nil), n.peers...)
		n.peersMu.RUnlock()
		for _, s := range peers {
			if s == nil {
				continue
			}
			s.mu.Lock()
			if s.conn != nil {
				s.conn.close()
			}
			s.mu.Unlock()
		}
		// Inbound connections (from clients and from peers that have
		// not shut down yet) must be severed too, or their serve
		// loops would keep this node's WaitGroup pinned.
		n.connsMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connsMu.Unlock()
	})
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// serveConn handles one inbound connection (client or peer). Responses are
// pre-encoded into pooled frames and coalesced by the connection's writer
// goroutine; replica-local requests are served inline on the read loop when
// no artificial delay is configured (goroutine-per-frame costs more than the
// storage read itself), while coordinator requests always dispatch so reads
// stay concurrent across replicas.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	n.connsMu.Lock()
	n.conns[conn] = struct{}{}
	n.connsMu.Unlock()
	defer func() {
		n.connsMu.Lock()
		delete(n.conns, conn)
		n.connsMu.Unlock()
	}()
	cw := newConnWriter(conn)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		cw.loop()
	}()
	defer cw.close()
	defer conn.Close() // runs before cw.close, unblocking a stuck writer
	r := wire.NewReader(conn)
	var bkeys []string // batch decode scratch, reused across frames
	var bvals [][]byte
	for {
		typ, payload, err := r.Next()
		if err != nil {
			return
		}
		// Parsed Keys and Values alias the frame buffer (valid until the
		// next r.Next): inline handlers may use them directly, dispatched
		// handlers get copies.
		switch typ {
		case wire.MsgRead:
			m, err := wire.ParseReadReq(payload)
			if err != nil {
				return
			}
			t := getReadTask()
			t.cw = cw
			if m.CL == wire.LevelOne {
				// The key rides in a pooled buffer; the fast path never
				// clones it (escalation paths clone on first spawn).
				kb := getBuf()
				*kb = append((*kb)[:0], m.Key...)
				t.kb = kb
				m.Key = pooledString(*kb)
			} else {
				m.Key = strings.Clone(m.Key)
			}
			t.m = m
			n.wg.Add(1)
			n.dispatchRead(t)
		case wire.MsgReadInternal:
			m, err := wire.ParseReadReq(payload)
			if err != nil {
				return
			}
			if n.inlineLocalReads() {
				n.respondLocalRead(cw, m)
				continue
			}
			m.Key = strings.Clone(m.Key)
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondLocalRead(cw, m)
			}()
		case wire.MsgWrite:
			m, err := wire.ParseWriteReq(payload)
			if err != nil {
				return
			}
			// Handled inline: coordinateWrite only dispatches legs (shard
			// queues, async RPCs) and returns; the ack is enqueued by the
			// leg that decides the level. The key is retained by the gather
			// and possibly the memtable, so it must be cloned.
			vb := getBuf()
			*vb = append((*vb)[:0], m.Value...)
			g := pointGather(strings.Clone(m.Key), *vb, m.Del, vb)
			g.cw, g.id = cw, m.ID
			n.coordinateWrite(g, Level(m.CL))
		case wire.MsgWriteInternal:
			m, err := wire.ParseWriteReq(payload)
			if err != nil {
				return
			}
			// Queued to the key's shard writer, which folds pipelined
			// writes into one WAL commit group. A flush or compaction
			// stalls only that shard's queue, never this link's reads.
			t := getWriteTask()
			t.kind = taskInternal
			t.key = strings.Clone(m.Key) // the memtable retains it
			t.ver = m.Version
			t.del = m.Del
			vb := getBuf()
			*vb = append((*vb)[:0], m.Value...)
			t.val, t.vb = *vb, vb
			t.cw, t.id = cw, m.ID
			n.enqueueWriteTask(n.shardOf(t.key), t)
		case wire.MsgBatchRead:
			m, err := wire.ParseBatchReadReq(payload, bkeys[:0])
			if err != nil {
				return
			}
			bkeys = m.Keys
			// Coordination always dispatches (it blocks on replica RPCs),
			// so the keys must outlive the frame buffer.
			keys := cloneKeys(m.Keys)
			id, cl := m.ID, m.CL
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondCoordBatchRead(cw, id, cl, keys)
			}()
		case wire.MsgBatchReadInternal:
			m, err := wire.ParseBatchReadReq(payload, bkeys[:0])
			if err != nil {
				return
			}
			bkeys = m.Keys
			if n.inlineLocalReads() {
				// Served before the next frame is read: keys may alias the
				// frame buffer, and values stream straight from the store
				// into the response frame.
				n.respondLocalBatchRead(cw, m.ID, m.Keys)
				continue
			}
			keys := cloneKeys(m.Keys)
			id := m.ID
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondLocalBatchRead(cw, id, keys)
			}()
		case wire.MsgBatchWrite:
			m, err := wire.ParseBatchWriteReq(payload, bkeys[:0], bvals[:0])
			if err != nil {
				return
			}
			bkeys, bvals = m.Keys, m.Values
			// Handled inline like MsgWrite, over copies that outlive the
			// frame buffer.
			vals, arena := cloneValues(m.Values)
			g := batchGather(cloneKeys(m.Keys), vals, arena)
			g.cw, g.id = cw, m.ID
			n.coordinateWrite(g, Level(m.CL))
		case wire.MsgBatchWriteInternal:
			m, err := wire.ParseBatchWriteReq(payload, bkeys[:0], bvals[:0])
			if err != nil {
				return
			}
			bkeys, bvals = m.Keys, m.Values
			keys := cloneKeys(m.Keys)
			vals, arena := cloneValues(m.Values)
			id, ver := m.ID, m.Version
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondLocalBatchWrite(cw, id, ver, keys, vals, arena)
			}()
		case wire.MsgRingUpdate:
			u, err := wire.ParseRingUpdate(payload)
			if err != nil {
				return
			}
			for i := range u.Nodes { // addrs alias the frame buffer
				u.Nodes[i].Addr = strings.Clone(u.Nodes[i].Addr)
			}
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondRingUpdate(cw, u)
			}()
		case wire.MsgJoinReq:
			m, err := wire.ParseJoinReq(payload)
			if err != nil {
				return
			}
			id, addr := m.ID, strings.Clone(m.Addr)
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondJoin(cw, id, addr)
			}()
		case wire.MsgStreamReq:
			m, err := wire.ParseStreamReq(payload)
			if err != nil {
				return
			}
			m.Cursor = strings.Clone(m.Cursor)
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondStream(cw, m)
			}()
		case wire.MsgStreamPush:
			// A decommissioning peer re-homing one page of its arcs: same
			// layout as an internal batch write, applied only-if-absent.
			m, err := wire.ParseBatchWriteReq(payload, bkeys[:0], bvals[:0])
			if err != nil {
				return
			}
			bkeys, bvals = m.Keys, m.Values
			keys := cloneKeys(m.Keys)
			vals, arena := cloneValues(m.Values)
			id := m.ID
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondStreamPush(cw, id, keys, vals, arena)
			}()
		default:
			return // protocol error: drop the connection
		}
	}
}

// allOK is a shared read-only all-true slice: a replica-local batch write
// that lands acks every key, so the encoder borrows a prefix instead of
// allocating per response. allFail is its mirror for a batch whose WAL
// commit failed (the whole group shares one fsync, so the batch succeeds or
// fails as a unit).
var allOK = func() []bool {
	b := make([]bool, wire.MaxBatchKeys)
	for i := range b {
		b[i] = true
	}
	return b
}()

var allFail = make([]bool, wire.MaxBatchKeys)

// cloneKeys copies frame-aliasing keys into durable strings (dispatched
// handlers outlive the frame buffer; the memtable retains write keys).
func cloneKeys(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = strings.Clone(k)
	}
	return out
}

// cloneValues copies frame-aliasing values into one pooled arena — a single
// exact-size copy instead of one allocation per key. The returned slices
// alias the arena; the caller recycles it via putBuf once every consumer
// (lsm.Put copies; frame encoders copy) is done with the values.
func cloneValues(vals [][]byte) ([][]byte, *[]byte) {
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	ab := getBuf()
	arena := (*ab)[:0]
	if cap(arena) < total {
		arena = make([]byte, 0, total)
	}
	out := make([][]byte, len(vals))
	for i, v := range vals {
		off := len(arena)
		arena = append(arena, v...)
		out[i] = arena[off:len(arena):len(arena)]
	}
	*ab = arena
	return out, ab
}

// inlineLocalReads reports whether replica-local reads are served on the
// connection's read loop. Any configured storage delay or injected slowdown
// restores per-frame dispatch so a slow read does not serialize the link.
func (n *Node) inlineLocalReads() bool {
	return n.cfg.ReadDelayMean == 0 && n.slowNs.Load() == 0
}

// respondLocalRead serves a replica-local read and enqueues the response,
// streaming the value straight from the LSM store into the frame buffer —
// no intermediate value copy.
func (n *Node) respondLocalRead(cw *connWriter, m wire.ReadReq) {
	sh := n.shardOf(m.Key)
	start := n.beginRead(sh)
	fb := getBuf()
	b, mark := wire.BeginReadResp((*fb)[:0], m.ID)
	b, found := n.store.Shard(sh).GetAppend(b, m.Key)
	b, err := wire.FinishReadResp(b, mark, found, wire.StatusOK, n.finishRead(sh, start))
	if err != nil {
		putBuf(fb)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// respondLocalBatchRead serves a replica-local sub-batch as one unit: every
// key is read against the LSM store in request order, values streaming
// straight into the response frame, and the queue-size feedback is sampled
// once after the whole sub-batch — carrying weight len(keys) on the
// coordinator side, so C3's q̂ sees the batch's true cost.
func (n *Node) respondLocalBatchRead(cw *connWriter, id uint64, keys []string) {
	fb := getBuf()
	b, err := n.serveBatchRead((*fb)[:0], id, keys)
	if err != nil {
		// The response cannot be framed (values overflow MaxFrame): sever so
		// the coordinator's call fails fast instead of waiting forever.
		putBuf(fb)
		cw.sever(err)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// serveBatchRead encodes the complete batch read-response frame for keys
// into dst — the shared storage-to-frame path of remote sub-batches
// (respondLocalBatchRead) and the coordinator's own local sub-batches.
func (n *Node) serveBatchRead(dst []byte, id uint64, keys []string) ([]byte, error) {
	sh := n.shardOf(keys[0])
	start := n.beginBatchRead(sh, len(keys))
	b, mark := wire.BeginBatchReadResp(dst, id)
	var err error
	for _, k := range keys {
		b = wire.BeginBatchReadItem(b, &mark)
		var found bool
		b, found = n.store.GetAppend(b, k)
		if b, err = wire.FinishBatchReadItem(b, &mark, found); err != nil {
			n.finishBatchRead(sh, start, len(keys))
			return dst, err
		}
	}
	return wire.FinishBatchReadResp(b, mark, n.finishBatchRead(sh, start, len(keys)))
}

// beginBatchRead is beginRead for a coalesced sub-batch: the queue
// accounting moves by the batch size — count keys, not frames, or the
// feedback would tell coordinators a loaded replica was idle — while the
// artificial storage delay is paid once, the modelled seek a coalesced batch
// amortizes. A sub-batch may span shards; its accounting is charged to the
// first key's shard (sub-batches partition by replica group, not shard).
func (n *Node) beginBatchRead(sh, count int) time.Time {
	n.st[sh].pendingReads.Add(int64(count))
	start := time.Now()
	if d := n.readDelay(); d > 0 {
		time.Sleep(d)
	}
	return start
}

// finishBatchRead completes the server half of a sub-batch: queue accounting
// released, the smoothed per-key service time updated (the batch's elapsed
// time spread over its keys), and a post-batch feedback sample.
func (n *Node) finishBatchRead(sh int, start time.Time, count int) wire.Feedback {
	svc := time.Since(start)
	n.st[sh].pendingReads.Add(-int64(count))
	n.served.Add(uint64(count))
	per := float64(svc) / float64(count)
	old := n.st[sh].svcNs.Load()
	n.st[sh].svcNs.Store(uint64(0.2*per + 0.8*float64(old)))
	return n.feedbackAt(sh)
}

// applyStreamed lands one streamed page — keys with the raw version-prefixed
// values they had on the sender — as one batch: one commit group per page.
// Each value is split back into its version and payload and applied under
// the store's last-write-wins guard (the check and the write are one critical
// section), so a streamed pre-move value can never clobber a newer dual-routed
// write that arrived first; a record the guard skips is still a success.
func (n *Node) applyStreamed(keys []string, raws [][]byte) error {
	vers := make([]uint64, len(keys))
	vals := make([][]byte, len(keys))
	for i, raw := range raws {
		vers[i], vals[i] = lsm.SplitVersioned(raw)
	}
	return n.store.ApplyMulti(keys, vers, vals, nil)
}

// respondStreamPush applies one re-homing page from a decommissioning peer
// (see applyStreamed). Every key acks OK whether it landed or lost to newer
// data; only a storage failure fails the page, as a unit.
func (n *Node) respondStreamPush(cw *connWriter, id uint64, keys []string, vals [][]byte, arena *[]byte) {
	oks := allOK
	if n.applyStreamed(keys, vals) != nil {
		oks = allFail // storage wedged: the pusher must not count this page
	}
	n.respondBatchWriteAcks(cw, id, oks[:len(keys)], arena)
}

// respondLocalBatchWrite applies a write sub-batch under the coordinator's
// stamp ver, shared by every record, and enqueues the per-key acks. The batch
// lands through one WAL commit group — one fsync for the whole sub-batch — so
// it acks or fails as a unit.
func (n *Node) respondLocalBatchWrite(cw *connWriter, id uint64, ver uint64, keys []string, vals [][]byte, arena *[]byte) {
	oks := allOK
	if n.applyClientBatch(keys, ver, vals) != nil {
		oks = allFail
	}
	n.respondBatchWriteAcks(cw, id, oks[:len(keys)], arena)
}

// respondBatchWriteAcks recycles arena — the pooled buffer that backed the
// applied values (the store copied them) — and enqueues the per-key acks.
func (n *Node) respondBatchWriteAcks(cw *connWriter, id uint64, oks []bool, arena *[]byte) {
	putBuf(arena)
	fb := getBuf()
	b, err := wire.AppendBatchWriteResp((*fb)[:0], wire.BatchWriteResp{
		ID: id, OK: oks, FB: n.feedback()})
	if err != nil {
		putBuf(fb)
		cw.sever(err)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// respondCoordRead coordinates a client read — routed by the request's
// consistency level — and enqueues the response. An inline local read streams
// its raw stored value straight onto the open frame (vbuf nil); a raced or
// quorum read's winning value arrives split in a pooled buffer and is
// re-prefixed with its version here — one bounded copy, the price of letting
// concurrent racers resolve without sharing the frame buffer.
func (n *Node) respondCoordRead(cw *connWriter, m wire.ReadReq) {
	fb := getBuf()
	b, mark := wire.BeginReadResp((*fb)[:0], m.ID)
	var resp wire.ReadResp
	var vbuf *[]byte
	if m.CL == wire.LevelOne {
		resp, vbuf = n.coordinateRead(m, b)
	} else {
		resp, vbuf = n.coordinateQuorumRead(m)
	}
	if vbuf != nil {
		if resp.Found {
			b = lsm.AppendVersioned(b, resp.Version, resp.Value)
		}
		putBuf(vbuf)
	} else if resp.Value != nil {
		b = resp.Value // the frame extended by the raw value (possibly regrown)
	}
	b, err := wire.FinishReadResp(b, mark, resp.Found, resp.Status, resp.FB)
	if err != nil {
		putBuf(fb)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// feedback samples the node's current C3 feedback fields aggregated over
// shards: queue sizes sum; service time averages. Replica read responses
// carry the per-shard sample (feedbackAt) instead — a coordinator's shard-s
// selector paces against the replicas' shard-s queues.
func (n *Node) feedback() wire.Feedback {
	var q int64
	var svc uint64
	for sh := range n.st {
		q += n.st[sh].pendingReads.Load()
		svc += n.st[sh].svcNs.Load()
	}
	return wire.Feedback{
		QueueSize: float64(q),
		ServiceNs: int64(svc / uint64(len(n.st))),
	}
}

// localRead serves a replica-local read with queue accounting, artificial
// disk delay, and feedback sampling — the server half of C3 (§3.1). The
// value is appended to dst (the coordinator's open response frame when it
// serves one of its own keys).
func (n *Node) localRead(m wire.ReadReq, dst []byte) wire.ReadResp {
	sh := n.shardOf(m.Key)
	start := n.beginRead(sh)
	val, ok := n.store.Shard(sh).GetAppend(dst, m.Key)
	return wire.ReadResp{ID: m.ID, Found: ok, Value: val, FB: n.finishRead(sh, start)}
}

// beginRead is the server half's prologue: queue accounting on the key's
// shard plus the artificial storage delay. Every beginRead pairs with
// exactly one finishRead, which undoes the queue accounting.
func (n *Node) beginRead(sh int) time.Time {
	return n.beginReadAt(sh, time.Now())
}

// beginReadAt is beginRead with the caller supplying the start timestamp, so
// a path that already holds a fresh clock sample (the inline local fast path)
// does not pay a second one.
func (n *Node) beginReadAt(sh int, start time.Time) time.Time {
	n.st[sh].pendingReads.Add(1)
	if d := n.readDelay(); d > 0 {
		time.Sleep(d)
	}
	return start
}

// finishRead completes the server half of a read: queue accounting, the
// smoothed service-time update, and a post-read per-shard feedback sample.
func (n *Node) finishRead(sh int, start time.Time) wire.Feedback {
	return n.finishReadAt(sh, start, time.Now())
}

// finishReadAt is finishRead with the caller supplying the completion
// timestamp; the same sample then serves the RTT and the ranker clock.
func (n *Node) finishReadAt(sh int, start, end time.Time) wire.Feedback {
	svc := end.Sub(start)
	n.st[sh].pendingReads.Add(-1)
	n.served.Add(1)
	// Smoothed service time: new = 0.2·sample + 0.8·old, CAS-free since
	// small races only blur the estimate.
	old := n.st[sh].svcNs.Load()
	n.st[sh].svcNs.Store(uint64(0.2*float64(svc) + 0.8*float64(old)))
	return n.feedbackAt(sh)
}

// readDelay draws the configured artificial storage delay plus any injected
// slowdown.
func (n *Node) readDelay() time.Duration {
	var d int64
	if n.cfg.ReadDelayMean > 0 {
		n.rngMu.Lock()
		d = sim.Exp(n.rng, float64(n.cfg.ReadDelayMean))
		n.rngMu.Unlock()
	}
	return time.Duration(d + n.slowNs.Load())
}

// Failure penalty fed to the ranker when a selected replica's RPC fails: an
// effectively infinite queue and a one-second response time steer selection
// away until fresh feedback (a hedge, failover, or repair probe that
// succeeds) shows the replica recovered.
const (
	failPenaltyQueue = 1e6
	failPenaltyRTT   = time.Second
)

// isClosed reports whether the node has begun shutting down.
func (n *Node) isClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// timerPool recycles the hedge and budget timers of coordinated reads; two
// timer allocations per read would otherwise dominate the request's
// allocation budget.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains t so a recycled timer can never deliver a stale
// tick into its next read's race.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// observeReadRTT folds one successful replica-read round trip into the
// smoothed estimate driving the adaptive hedge delay (RFC 6298
// coefficients; CAS-free like svcNs — concurrent updates only blur it).
func (n *Node) observeReadRTT(rtt time.Duration) {
	d := float64(rtt)
	s := float64(n.srttNs.Load())
	if s == 0 {
		n.srttNs.Store(uint64(d))
		n.rttvarNs.Store(uint64(d / 2))
		return
	}
	diff := d - s
	if diff < 0 {
		diff = -diff
	}
	v := float64(n.rttvarNs.Load())
	n.rttvarNs.Store(uint64(v + 0.25*(diff-v)))
	n.srttNs.Store(uint64(s + 0.125*(d-s)))
}

// hedgeDevFactor scales the deviation term of the hedge delay (in halves:
// the delay is srtt + hedgeDevFactorHalves/2 · rttvar). RFC 6298 uses 4 for
// retransmission, where a spurious fire costs a full resend on a congested
// path; hedges are cheaper — a duplicate read to an idle-enough replica —
// so 3.5 buys a meaningfully earlier rescue (≈p93 of recent reads instead
// of ≈p99) while keeping duplicate load in single-digit percent (measured:
// ~6% at 4, ~10% at 3 under the tail benchmark's slow-replica scenario).
const hedgeDevFactorHalves = 7

// hedgeDelay is how long a read waits on its primary replica before
// duplicating to the next-ranked one: srtt + 3.5·rttvar clamped to the
// configured window — the same percentile regime as Cassandra's
// speculative-retry default, but derived from this coordinator's own
// observations and self-tuning at LAN speed.
func (n *Node) hedgeDelay() time.Duration {
	s := n.srttNs.Load()
	if s == 0 {
		return n.cfg.Hedge.MaxDelay // no observations yet: hedge late
	}
	d := time.Duration(s + hedgeDevFactorHalves*n.rttvarNs.Load()/2)
	if d < n.cfg.Hedge.MinDelay {
		d = n.cfg.Hedge.MinDelay
	}
	if d > n.cfg.Hedge.MaxDelay {
		d = n.cfg.Hedge.MaxDelay
	}
	return d
}

// accountReadFailure records a failed replica read with the selector: our
// own shutdown abandons (there is no feedback to observe), as does a failure
// toward a server the topology has since retired — a decommissioned node's
// dying links must not poison the EWMAs its dense index may still share with
// diagnostics — while a real failure of a live member feeds the punishing
// penalty.
func (n *Node) accountReadFailure(sel *core.Client, s core.ServerID, now time.Time) {
	if n.isClosed() || !n.topo.Load().serves(s) {
		sel.OnAbandon(s, now.UnixNano())
	} else {
		sel.OnResponse(s, core.Feedback{QueueSize: failPenaltyQueue,
			ServiceTime: failPenaltyRTT}, failPenaltyRTT, now.UnixNano())
	}
}

// accountReadSuccess feeds a replica read's piggybacked feedback and
// observed round trip to the shard's selector.
func (n *Node) accountReadSuccess(sel *core.Client, s core.ServerID, fb wire.Feedback, rtt time.Duration, now time.Time) {
	sel.OnResponse(s, core.Feedback{
		QueueSize:   fb.QueueSize,
		ServiceTime: time.Duration(fb.ServiceNs),
	}, rtt, now.UnixNano())
}

// raceOutcome is one replica's resolution within a coordinated read's race.
type raceOutcome struct {
	from core.ServerID
	resp wire.ReadResp
	err  error
	rtt  time.Duration
	buf  *[]byte // pooled buffer backing resp.Value; the consumer recycles it
}

// raceRead fires one replica read — local or remote — as an independent
// racer reporting into ch. The racer performs its own selector accounting
// as it resolves (a success feeds real feedback, a failure feeds the
// punishing penalty, our own shutdown abandons), so every send recorded for
// a racer is balanced by exactly one OnResponse/OnAbandon no matter whether
// the coordinator is still listening when the racer finishes. ch must be
// buffered for the whole race so a late loser never blocks.
func (n *Node) raceRead(sel *core.Client, s core.ServerID, m wire.ReadReq, ch chan<- raceOutcome) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		rb := getBuf()
		sent := time.Now()
		var out wire.ReadResp
		var err error
		if s == n.id {
			out = n.localRead(m, (*rb)[:0])
			if out.Found {
				// Normalize to the remote-response shape — version split off
				// the raw stored bytes — so race consumers see one format.
				out.Version, out.Value = lsm.SplitVersioned(out.Value)
			}
		} else {
			out, err = n.rpcRead(s, m, (*rb)[:0])
		}
		now := time.Now()
		if err != nil {
			putBuf(rb)
			n.accountReadFailure(sel, s, now)
			ch <- raceOutcome{from: s, err: err}
			return
		}
		if out.Value != nil {
			*rb = out.Value[:0] // the value append may have regrown the buffer
		}
		rtt := now.Sub(sent)
		n.accountReadSuccess(sel, s, out.FB, rtt, now)
		ch <- raceOutcome{from: s, resp: out, rtt: rtt, buf: rb}
	}()
}

// adoptCall hands a still-pending primary read to a background goroutine
// once its race was decided without it: the adopter completes the call's
// accounting — the late response still trains the ranker, a failure is
// penalized, our own shutdown abandons — and recycles its buffers. The
// winner already trained the hedge-delay estimate, so the adopted loser
// does not (its slowness is exactly what the hedge routed around).
func (n *Node) adoptCall(sel *core.Client, s core.ServerID, ca *call, rb *[]byte, sent time.Time) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		<-ca.done
		out, err := readResult(ca)
		now := time.Now()
		if err != nil {
			n.accountReadFailure(sel, s, now)
		} else {
			if out.Value != nil {
				*rb = out.Value[:0]
			}
			n.accountReadSuccess(sel, s, out.FB, now.Sub(sent), now)
		}
		putBuf(rb)
	}()
}

// reap drains the remaining racers of a finished read in the background,
// recycling their value buffers. Their selector accounting happens inside
// raceRead, so nothing is lost by not inspecting the outcomes.
func (n *Node) reap(ch <-chan raceOutcome, pending int) {
	if pending <= 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for i := 0; i < pending; i++ {
			putBuf((<-ch).buf)
		}
	}()
}

// maybeReadRepair occasionally probes every replica beyond the selected
// target (Cassandra's anti-entropy read repair). Beyond consistency, it
// refreshes the coordinator's feedback for replicas it has stopped
// selecting. Probe accounting pairs every OnSend with OnResponse on success
// and OnAbandon on failure — a failed probe must release its outstanding
// count, or q̂ toward an already-struggling replica inflates forever and the
// coordinator never notices it recovering (the leak this layer's regression
// test pins down).
func (n *Node) maybeReadRepair(m wire.ReadReq, group []core.ServerID, target core.ServerID) {
	if n.cfg.ReadRepair <= 0 {
		return
	}
	n.rngMu.Lock()
	repair := n.rng.Float64() < n.cfg.ReadRepair
	n.rngMu.Unlock()
	if !repair {
		return
	}
	// The probe goroutine outlives the request frame: the key may view a
	// pooled buffer and the group a stack scratch array, so both are cloned
	// here — repair is rare enough that the copies never show on the profile.
	m.Key = strings.Clone(m.Key)
	group = append([]core.ServerID(nil), group...)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.repairProbe(m, group, target)
	}()
}

// repairProbe is the body of a background read-repair pass: probe the key's
// versions on every replica except the read's target, then write the newest
// version back to the probed replicas holding older (or no) data. The probes
// carry versions, not just values, and the write-back goes through the
// replica-side last-write-wins guard — so a repair racing a dual-routed write
// can never roll a replica backward (the guard skips it, which is success).
// The target itself is not probed or repaired: the foreground read is
// consulting it concurrently, and the next probe round covers it.
func (n *Node) repairProbe(m wire.ReadReq, group []core.ServerID, target core.ServerID) {
	sel := n.selFor(m.Key)
	type probe struct {
		s     core.ServerID
		found bool
		ver   uint64
		val   []byte  // payload; aliases buf's backing array
		buf   *[]byte // pooled
	}
	probes := make([]probe, 0, len(group))
	for _, s := range group {
		if s == target {
			continue
		}
		rb := getBuf()
		if s == n.id {
			// Local probe: straight off the store, no selector traffic.
			val, ver, ok := n.store.GetVersioned((*rb)[:0], m.Key)
			*rb = val[:0]
			probes = append(probes, probe{s: s, found: ok, ver: ver, val: val, buf: rb})
			continue
		}
		sel.OnSend(s, time.Now().UnixNano())
		sent := time.Now()
		out, err := n.rpcRead(s, m, (*rb)[:0])
		if err != nil {
			// A probe is a best-effort observation: release its accounting
			// without synthesizing feedback. Punishing the replica is the
			// selected path's job.
			sel.OnAbandon(s, time.Now().UnixNano())
			putBuf(rb)
			continue
		}
		n.accountReadSuccess(sel, s, out.FB, time.Since(sent), time.Now())
		if out.Value != nil {
			*rb = out.Value[:0]
		}
		probes = append(probes, probe{s: s, found: out.Found, ver: out.Version, val: out.Value, buf: rb})
	}
	win := -1
	for i, p := range probes {
		if p.found && (win < 0 || p.ver > probes[win].ver) {
			win = i
		}
	}
	if win >= 0 {
		w := probes[win]
		for _, p := range probes {
			if p.s == w.s || (p.found && p.ver >= w.ver) {
				continue
			}
			n.repairReplica(p.s, m.Key, w.ver, w.val)
		}
	}
	for _, p := range probes {
		putBuf(p.buf)
	}
}

// readRace is the mutable state of one coordinated read's escalation
// ladder. It lives on the coordinator's stack; the outcome channel and the
// racer goroutines are created lazily, only when an escalation actually
// happens, so the common escalation-free read pays for none of them.
type readRace struct {
	n       *Node
	sel     *core.Client
	m       wire.ReadReq
	group   []core.ServerID
	tried   []core.ServerID // backed by triedBuf
	ch      chan raceOutcome
	pending int
	hedged  core.ServerID

	triedBuf [8]core.ServerID
}

// spawn launches a racer toward s. The first spawn materializes the race:
// the outcome channel is created and the key — which on the fast path views
// a pooled frame buffer — is cloned, because racer goroutines can outlive
// the request frame that owns that buffer.
func (r *readRace) spawn(s core.ServerID) {
	if r.ch == nil {
		r.ch = make(chan raceOutcome, len(r.group))
		r.m.Key = strings.Clone(r.m.Key)
	}
	r.tried = append(r.tried, s)
	r.n.raceRead(r.sel, s, r.m, r.ch)
	r.pending++
}

// escalate picks the next-ranked untried replica through the selector — so
// failure-path and hedge traffic still follows, and trains, the ranker
// instead of walking a fixed group order — and races it. isHedge marks a
// speculative duplicate (timer-fired, counted as duplicate load) as opposed
// to a failover after an error (which replaces a dead request and is not a
// duplicate). It reports false when every replica has been tried.
func (r *readRace) escalate(isHedge bool) bool {
	now := time.Now().UnixNano()
	var s core.ServerID
	var ok bool
	if isHedge {
		s, ok = r.sel.PickHedge(r.group, r.tried, now)
	} else {
		s, ok = r.sel.PickNext(r.group, r.tried, now)
	}
	if !ok {
		return false
	}
	if isHedge {
		r.hedged = s
	}
	r.spawn(s)
	return true
}

// coordinateRead is Algorithm 1 over real TCP, wrapped in the tail-tolerance
// layer: rank the key's replica group, wait for a rate token under
// backpressure, dispatch to the best replica, then escalate as needed — a
// speculative hedge to the next-ranked replica once the adaptive delay
// expires, immediate failovers to untried replicas on RPC failures, and a
// per-request budget backstopping the whole read. The first response wins;
// every dispatched request's result still feeds the ranker (late losers are
// adopted or reaped in the background with their accounting intact).
//
// The winning value is either appended to dst (inline local reads; vbuf is
// nil) or carried in the returned pooled buffer vbuf, which the caller
// recycles after encoding.
func (n *Node) coordinateRead(m wire.ReadReq, dst []byte) (resp wire.ReadResp, vbuf *[]byte) {
	n.coord.Add(1)
	sel := n.selFor(m.Key)
	var gbuf [8]core.ServerID
	group := n.topo.Load().readRing().ReplicasFor(keyBytes(m.Key), gbuf[:0])
	nowT := time.Now()
	target, ok, retryAt := sel.Pick(group, nowT.UnixNano())
	if !ok {
		// Backpressure: wait for a rate token, bounded by the configured
		// timeout. The common admitted case above pays one clock read.
		n.waited.Add(1)
		deadline := nowT.Add(n.cfg.BackpressureTimeout)
		for {
			now := time.Now()
			if now.After(deadline) {
				// Fail open: take the ranker's current best without
				// consuming a token so the request cannot starve. Unlike
				// sending to group[0], timeout traffic still spreads by
				// replica quality instead of piling onto one server.
				target, _ = sel.PickBest(group, now.UnixNano())
				break
			}
			time.Sleep(time.Duration(retryAt-now.UnixNano()) + 100*time.Microsecond)
			if target, ok, retryAt = sel.Pick(group, time.Now().UnixNano()); ok {
				break
			}
		}
	}
	n.maybeReadRepair(m, group, target)

	// Inline local fast path: an in-memory read with no configured delay
	// has nothing a hedge could rescue, and the race scaffolding would cost
	// more than the read itself. The value goes straight into the caller's
	// frame — zero copy, as before the tail-tolerance layer — and the whole
	// read pays two clock samples: the admission timestamp doubles as the
	// service start, the completion timestamp covers service time, RTT, and
	// the ranker's feedback clock.
	if target == n.id && n.inlineLocalReads() {
		sh := n.shardOf(m.Key)
		start := n.beginReadAt(sh, nowT)
		val, found := n.store.Shard(sh).GetAppend(dst, m.Key)
		end := time.Now()
		fb := n.finishReadAt(sh, start, end)
		n.accountReadSuccess(sel, target, fb, end.Sub(start), end)
		return wire.ReadResp{ID: m.ID, Found: found, Value: val, FB: fb}, nil
	}

	race := readRace{n: n, sel: sel, m: m, group: group, hedged: -1}
	race.tried = race.triedBuf[:0]

	// Dispatch the primary. A remote target whose connection is already up
	// goes out asynchronously on the pooled call record, so the common
	// escalation-free read needs no extra goroutine and no channel. A
	// remote target that would need a dial, and a local target behind a
	// storage delay, run as ordinary racers instead: both can stall (up to
	// peerDialTimeout, or in the storage sleep), and the stall must happen
	// where the hedge timer can race it.
	var (
		ca     *call // pending primary RPC, nil once resolved
		caDone <-chan struct{}
		caBuf  *[]byte
		sent   time.Time
	)
	if target == n.id {
		race.spawn(target)
	} else if p, ok := n.peerReady(target); ok {
		race.tried = append(race.tried, target)
		sent = time.Now()
		caBuf = getBuf()
		if c, err := p.readAsync(m.Key, (*caBuf)[:0]); err == nil {
			ca, caDone = c, c.done
		} else {
			// The link died under us: penalize and fail over now.
			putBuf(caBuf)
			caBuf = nil
			n.accountReadFailure(sel, target, time.Now())
			if !race.escalate(false) {
				return wire.ReadResp{ID: m.ID}, nil
			}
		}
	} else {
		race.spawn(target)
	}

	budget := getTimer(n.cfg.ReadBudget)
	defer putTimer(budget)
	var hedgeC <-chan time.Time
	if !n.cfg.Hedge.Disabled && len(group) > 1 {
		ht := getTimer(n.hedgeDelay())
		defer putTimer(ht)
		hedgeC = ht.C
	}
	for {
		select {
		case <-caDone:
			caDone = nil
			out, err := readResult(ca)
			ca = nil
			now := time.Now()
			if err == nil {
				rtt := now.Sub(sent)
				n.accountReadSuccess(sel, target, out.FB, rtt, now)
				if out.Value != nil {
					*caBuf = out.Value[:0]
				}
				// Only winners train the hedge delay: a slow loser's RTT
				// is exactly what hedging routes around, and folding it
				// in would push the delay up until hedges stop firing.
				n.observeReadRTT(rtt)
				n.reap(race.ch, race.pending)
				out.ID = m.ID
				return out, caBuf
			}
			putBuf(caBuf)
			caBuf = nil
			n.accountReadFailure(sel, target, now)
			if !race.escalate(false) && race.pending == 0 {
				return wire.ReadResp{ID: m.ID}, nil // every replica failed
			}
		case out := <-race.ch:
			race.pending--
			if out.err == nil {
				if out.from == race.hedged {
					n.hedgeWins.Add(1)
				}
				n.observeReadRTT(out.rtt)
				n.reap(race.ch, race.pending)
				if ca != nil {
					n.adoptCall(sel, target, ca, caBuf, sent)
				}
				out.resp.ID = m.ID
				return out.resp, out.buf
			}
			if !race.escalate(false) && race.pending == 0 && ca == nil {
				return wire.ReadResp{ID: m.ID}, nil // every replica failed
			}
		case <-hedgeC:
			hedgeC = nil
			race.escalate(true)
		case <-budget.C:
			// Budget exhausted: answer not-found now. Whatever is still
			// in flight accounts for itself and is cleaned up in the
			// background.
			n.reap(race.ch, race.pending)
			if ca != nil {
				n.adoptCall(sel, target, ca, caBuf, sent)
			}
			return wire.ReadResp{ID: m.ID}, nil
		}
	}
}

var errClosed = errors.New("kvstore: node closed")

// peerDialTimeout bounds one connection attempt to a peer;
// peerRedialBackoff is the fail-fast window after a failed dial — requests
// toward a peer that just refused a connection error out immediately instead
// of queueing another blocking dial, so a flapping peer cannot accumulate
// dial attempts.
const (
	peerDialTimeout   = time.Second
	peerRedialBackoff = 50 * time.Millisecond
)

// peerSlot is the per-peer outbound connection state. Each peer has its own
// lock, so a dial to a dead peer — which blocks for up to peerDialTimeout —
// head-of-line-blocks only RPCs to that peer, never traffic to healthy ones.
type peerSlot struct {
	mu       sync.Mutex
	conn     *rpcConn
	lastFail time.Time // last failed dial; starts the fail-fast window
	lastErr  error     // the failure served during the window
}

// peerSlotFor returns (creating if needed) the connection slot for a peer.
// Slots are pointers, so a held reference stays valid across growth.
func (n *Node) peerSlotFor(id core.ServerID) *peerSlot {
	n.peersMu.RLock()
	if int(id) < len(n.peers) {
		if s := n.peers[int(id)]; s != nil {
			n.peersMu.RUnlock()
			return s
		}
	}
	n.peersMu.RUnlock()
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	for int(id) >= len(n.peers) {
		n.peers = append(n.peers, nil)
	}
	if n.peers[int(id)] == nil {
		n.peers[int(id)] = &peerSlot{}
	}
	return n.peers[int(id)]
}

// peerReady returns the established healthy connection to a peer without
// ever blocking: it reports false when the link would need a dial — which
// can stall for up to peerDialTimeout — or when another goroutine holds the
// slot (dialing right now). Callers that get false dispatch through a racer
// goroutine instead, so the hedge timer keeps covering dial latency.
func (n *Node) peerReady(id core.ServerID) (*rpcConn, bool) {
	slot := n.peerSlotFor(id)
	if !slot.mu.TryLock() {
		return nil, false
	}
	p := slot.conn
	slot.mu.Unlock()
	if p != nil && !p.dead() {
		return p, true
	}
	return nil, false
}

// peer returns (establishing if needed) the RPC connection to a peer node.
func (n *Node) peer(id core.ServerID) (*rpcConn, error) {
	slot := n.peerSlotFor(id)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if p := slot.conn; p != nil && !p.dead() {
		return p, nil
	}
	select {
	case <-n.closed:
		return nil, errClosed
	default:
	}
	if slot.lastErr != nil && time.Since(slot.lastFail) < peerRedialBackoff {
		return nil, slot.lastErr
	}
	addr := n.topo.Load().addrOf(id)
	if addr == "" {
		return nil, errUnknownPeer
	}
	//lint:allow lockscope slot.mu is this one peer's private dial lock — serializing concurrent redials to a dead peer is the point; request paths only graze it for the conn check
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		slot.lastFail = time.Now()
		slot.lastErr = err
		return nil, err
	}
	slot.lastErr = nil
	slot.conn = newRPCConn(conn)
	return slot.conn, nil
}

func (n *Node) rpcRead(id core.ServerID, m wire.ReadReq, dst []byte) (wire.ReadResp, error) {
	p, err := n.peer(id)
	if err != nil {
		return wire.ReadResp{}, err
	}
	return p.read(m.Key, dst)
}

// Cluster is a convenience harness that runs n nodes on loopback.
type Cluster struct {
	Nodes []*Node
}

// StartCluster boots n nodes with the shared config on 127.0.0.1 ports.
// Listeners are bound once and handed to the nodes, so no other process can
// grab a port between reservation and startup.
func StartCluster(nodes int, cfg Config) (*Cluster, error) {
	if nodes < 1 {
		return nil, errors.New("kvstore: need at least one node")
	}
	// Reserve every port first so all nodes know the full topology.
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, bound := range lns[:i] {
				bound.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	c := &Cluster{}
	for i := range lns {
		n, err := StartNodeWithListener(i, addrs, lns[i], cfg)
		if err != nil {
			for _, ln := range lns[i+1:] {
				ln.Close()
			}
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Addrs lists the node addresses.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Addr()
	}
	return out
}

// Close shuts all nodes down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		if n != nil {
			n.Close()
		}
	}
}
