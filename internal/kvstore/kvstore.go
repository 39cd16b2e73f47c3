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
	// ReadRepair is the probability a read also probes every replica it
	// did not ask, the coordinator's own included, for versions (Cassandra's
	// read repair chance, 10% by default); a probed replica that answered
	// older or absent than the read's answer gets it written back in the
	// background. Beyond consistency, it is what keeps coordinators' views
	// of currently unselected replicas fresh — without it, a replica that
	// turned slow and was abandoned would never be observed recovering.
	// Negative disables it.
	ReadRepair float64
	// BackpressureTimeout bounds how long a coordinator holds a request
	// waiting for a rate token before failing open (default 2s).
	BackpressureTimeout time.Duration
	// ReadBudget bounds how long a coordinated read may spend across its
	// replicas, hedges and failovers once dispatched (default 2s). A point
	// read that exhausts it fails with ErrTimeout and a batch read reports
	// the keys it could not read not-found; requests still in flight settle
	// in the background with their accounting intact.
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
// short of its R answers sends one more leg to the next-best-ranked untried
// replica (the read ladder, readpath.go); at CL=ONE the first answer wins.
// Every response still feeds the ranker, so a hedge doubles as a freshness
// probe of a replica the coordinator had stopped selecting. This is the
// layer Cassandra pairs with replica selection as "speculative retry" (and
// the paper's §8 reissues atop C3).
type HedgeConfig struct {
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
	arcPages    atomic.Uint64 // key-range pages received (wire.ArcPage): a push's progress

	// Replica reads this coordinator sent, in keys: data reads (values),
	// digests (versions only, probes included), and the values fetched after
	// a digest turned out newer than the data.
	replicaReads  atomic.Uint64
	digestReads   atomic.Uint64
	digestFetches atomic.Uint64

	hlc        atomic.Uint64 // HLC version-stamp state (see stampVersion)
	hints      *hintStore    // per-peer handoff queues; nil when disabled
	dropWrites atomic.Bool   // fault injection: fail write legs (SetDropWrites)

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
// count lives in the selector (PickHedgeN records it, in keys); failovers
// after an error go through PickNextN and are not counted.
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
// goroutine. A peer speaks batch frames only, whatever the key count: a read
// leg (MsgBatchReadInternal) is served inline on the read loop when no
// artificial delay is configured (goroutine-per-frame costs more than the
// storage read itself), and a write leg, hint replay or stream push is handed
// to the shard writers. Client reads always dispatch so they stay concurrent
// across replicas; client writes only dispatch legs, so they run inline.
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
			// A batch of one, dispatched like MsgBatchRead; the gather
			// copies the key out of the frame buffer here.
			keys := [1]string{m.Key}
			t := getReadTask()
			t.cw, t.id, t.point = cw, m.ID, true
			t.g = n.newReadGather(m.CL, keys[:], readValues)
			n.wg.Add(1)
			n.dispatchRead(t)
		case wire.MsgWrite:
			m, err := wire.ParseWriteReq(payload)
			if err != nil {
				return
			}
			// Handled inline: coordinateWrite only dispatches legs (shard
			// queues, async RPCs) and returns; the ack is enqueued by the
			// leg that decides the level. Key and value move to one pooled
			// buffer that the gather releases after its last leg.
			key, val, vb := pooledKV(m.Key, m.Value)
			g := pointGather(key, val, m.Del, vb)
			g.cw, g.id = cw, m.ID
			n.coordinateWrite(g, Level(m.CL))
		case wire.MsgBatchRead:
			m, err := wire.ParseBatchReadReq(payload, bkeys[:0])
			if err != nil {
				return
			}
			bkeys = m.Keys
			// Coordination dispatches (it waits on replica RPCs); the gather
			// copies the keys out of the frame buffer here.
			t := getReadTask()
			t.cw, t.id = cw, m.ID
			t.g = n.newReadGather(m.CL, m.Keys, readValues)
			n.wg.Add(1)
			n.dispatchRead(t)
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
				n.respondLocalBatchRead(cw, m.ID, m.Keys, m.Digest)
				continue
			}
			// Behind a storage delay the leg is served off the loop, over a
			// pooled copy of its keys.
			kc := copyKeys(m.Keys)
			id, digest := m.ID, m.Digest
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.respondLocalBatchRead(cw, id, kc.keys, digest)
				kc.release()
			}()
		case wire.MsgBatchWrite, wire.MsgBatchWriteInternal, wire.MsgStreamPush:
			m, err := wire.ParseBatchWriteReq(payload, bkeys[:0], bvals[:0])
			if err != nil || (m.Del && typ != wire.MsgBatchWriteInternal) {
				return // batch delete is not a client feature
			}
			bkeys, bvals = m.Keys, m.Values
			if typ != wire.MsgBatchWrite {
				// A replica write: the records are copied into one pooled
				// buffer and handed to the shard writers; the last shard to
				// apply its share acks.
				n.applyFrame(cw, typ, m)
				continue
			}
			// Handled inline like MsgWrite, over a pooled copy that
			// outlives the frame buffer.
			keys, vals, arena := cloneBatch(m.Keys, m.Values)
			g := batchGather(keys, vals, arena)
			g.cw, g.id = cw, m.ID
			n.coordinateWrite(g, Level(m.CL))
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
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.answerStreamReq(cw, m)
			}()
		default:
			return // protocol error: drop the connection
		}
	}
}

// allTrue is a shared read-only all-true slice, long enough for any batch:
// the per-key acks of a batch every key of which was acked, and the
// tombstone column of a delete. allFalse is its mirror.
var allTrue = func() []bool {
	b := make([]bool, wire.MaxBatchKeys)
	for i := range b {
		b[i] = true
	}
	return b
}()

var allFalse = make([]bool, wire.MaxBatchKeys)

// keyCopy is a pooled copy of a frame's keys, all in one buffer, for a
// handler that outlives the frame buffer.
type keyCopy struct {
	keys []string
	buf  []byte
}

var keyCopyPool = sync.Pool{New: func() any { return new(keyCopy) }}

func copyKeys(keys []string) *keyCopy {
	kc := keyCopyPool.Get().(*keyCopy)
	total := 0
	for _, k := range keys {
		total += len(k)
	}
	buf := kc.buf[:0]
	if cap(buf) < total {
		buf = make([]byte, 0, total) // never regrown below: earlier views stay put
	}
	kc.keys = resize(kc.keys, len(keys))
	for i, k := range keys {
		at := len(buf)
		buf = append(buf, k...)
		kc.keys[i] = pooledString(buf[at:])
	}
	kc.buf = buf
	return kc
}

func (kc *keyCopy) release() {
	clear(kc.keys)
	if cap(kc.buf) > bufRetainCap {
		kc.buf = nil
	}
	keyCopyPool.Put(kc)
}

// pooledKV copies a point write's key and value into one pooled buffer and
// returns views of both. The caller recycles the buffer via putBuf once
// every consumer is done: the store copies what it keeps (ApplyMulti
// retains nothing), frame encoders copy, and hints clone.
func pooledKV[K ~string | ~[]byte](key K, val []byte) (string, []byte, *[]byte) {
	vb := getBuf()
	b := append(append((*vb)[:0], key...), val...)
	*vb = b
	return pooledString(b[:len(key)]), b[len(key):len(b):len(b)], vb
}

// cloneBatch copies a batch's keys and values into one pooled arena — a
// single exact-size copy instead of one allocation per key — and returns
// views of them, under pooledKV's recycling rule.
func cloneBatch[K ~string | ~[]byte](keys []K, vals [][]byte) ([]string, [][]byte, *[]byte) {
	total := 0
	for i, k := range keys {
		total += len(k) + len(vals[i])
	}
	ab := getBuf()
	arena := (*ab)[:0]
	if cap(arena) < total {
		arena = make([]byte, 0, total)
	}
	ks := make([]string, len(keys))
	vs := make([][]byte, len(vals))
	for i, k := range keys {
		off := len(arena)
		arena = append(arena, k...)
		ks[i] = pooledString(arena[off:])
		off = len(arena)
		arena = append(arena, vals[i]...)
		vs[i] = arena[off:len(arena):len(arena)]
	}
	*ab = arena
	return ks, vs, ab
}

// inlineLocalReads reports whether replica-local reads are served on the
// connection's read loop. Any configured storage delay or injected slowdown
// restores per-frame dispatch so a slow read does not serialize the link.
func (n *Node) inlineLocalReads() bool {
	return n.cfg.ReadDelayMean == 0 && n.slowNs.Load() == 0
}

// appendLocal appends key's raw stored bytes (version prefix and payload) to
// dst from shard sh, or only its version prefix for a digest.
func (n *Node) appendLocal(dst []byte, sh int, key string, digest bool) ([]byte, bool) {
	if !digest {
		return n.store.Shard(sh).GetAppend(dst, key)
	}
	ver, ok := n.store.Shard(sh).Version(key)
	if ok {
		dst = lsm.AppendVersioned(dst, ver, nil)
	}
	return dst, ok
}

// respondLocalBatchRead serves a replica-local read leg as one unit: every
// key is read against the LSM store in request order, values (or, for a
// digest, versions) streaming straight into the response frame, and the
// queue-size feedback of the first key's shard is sampled once after the
// whole leg — carrying weight len(keys) on the coordinator side, so C3's q̂
// sees the leg's true cost.
func (n *Node) respondLocalBatchRead(cw *connWriter, id uint64, keys []string, digest bool) {
	sh := n.shardOf(keys[0])
	start := n.beginRead(sh, len(keys), time.Now())
	fb := getBuf()
	b, mark := wire.BeginBatchReadResp((*fb)[:0], id)
	var err error
	for _, k := range keys {
		b = wire.BeginBatchReadItem(b, &mark)
		var found bool
		b, found = n.appendLocal(b, n.shardOf(k), k, digest)
		if b, err = wire.FinishBatchReadItem(b, &mark, found); err != nil {
			break
		}
	}
	feedback := n.finishRead(sh, len(keys), start, time.Now())
	if err == nil {
		b, err = wire.FinishBatchReadResp(b, mark, feedback)
	}
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

// feedback samples the node's current C3 feedback fields aggregated over
// shards: queue sizes sum; service time averages. It answers clients; replica
// responses — read answers and write acks alike — carry their first key's
// shard sample (feedbackAt) instead, since a coordinator's shard-s selector
// paces against the replicas' shard-s queues.
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

// beginRead is the server half's prologue for count keys — one point read or
// one coalesced sub-batch — whose service starts at start (a caller already
// holding a fresh clock sample, like the inline local fast path, does not pay
// a second one). The queue accounting on shard sh moves by count — keys, not
// frames, or the feedback would tell coordinators a loaded replica was idle —
// while the artificial storage delay is paid once, the modelled seek a
// coalesced batch amortizes. A sub-batch may span shards; its accounting is
// charged to the first key's shard (sub-batches partition by replica group,
// not shard). Every beginRead pairs with exactly one finishRead, which undoes
// the queue accounting.
func (n *Node) beginRead(sh, count int, start time.Time) time.Time {
	n.st[sh].pendingReads.Add(int64(count))
	if d := n.readDelay(); d > 0 {
		time.Sleep(d)
	}
	return start
}

// finishRead completes the server half of count keys at end (the same sample
// can then serve the RTT and the ranker clock): queue accounting released,
// the smoothed per-key service time updated — new = 0.2·sample + 0.8·old, the
// elapsed time spread over the keys, CAS-free since small races only blur the
// estimate — and a post-read per-shard feedback sample.
func (n *Node) finishRead(sh, count int, start, end time.Time) wire.Feedback {
	n.st[sh].pendingReads.Add(-int64(count))
	n.served.Add(uint64(count))
	per := float64(end.Sub(start)) / float64(count)
	old := n.st[sh].svcNs.Load()
	n.st[sh].svcNs.Store(uint64(0.2*per + 0.8*float64(old)))
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

// accountReadFailure records a failed read of nk keys toward s with the
// selector: our own shutdown abandons (there is no feedback to observe), as
// does a failure toward a server the topology has since retired — a
// decommissioned node's dying links must not poison the EWMAs its dense
// index may still share with diagnostics — while a real failure of a live
// member feeds the punishing penalty, with batch weight.
func (n *Node) accountReadFailure(sel *core.Client, s core.ServerID, nk int, now time.Time) {
	if n.isClosed() || !n.topo.Load().serves(s) {
		sel.OnAbandonN(s, nk, now.UnixNano())
	} else {
		n.accountReadSuccess(sel, s, nk, wire.Feedback{QueueSize: failPenaltyQueue,
			ServiceNs: int64(failPenaltyRTT)}, failPenaltyRTT, now)
	}
}

// accountReadSuccess feeds a read's piggybacked feedback and observed round
// trip to the shard's selector. A sub-batch of nk keys weighs nk — the one
// sample describes the post-batch server state, and the replica just shed nk
// outstanding reads.
func (n *Node) accountReadSuccess(sel *core.Client, s core.ServerID, nk int, fb wire.Feedback, rtt time.Duration, now time.Time) {
	f := core.Feedback{QueueSize: fb.QueueSize, ServiceTime: time.Duration(fb.ServiceNs)}
	sel.OnResponseN(s, nk, f, rtt, now.UnixNano())
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
// slot (dialing right now). Callers that get false dispatch on a goroutine
// of their own instead, so the hedge timer keeps covering dial latency.
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
