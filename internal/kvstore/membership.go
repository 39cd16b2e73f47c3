package kvstore

// Dynamic membership: the live store's topology is a versioned ring
// (ring.Versioned) announced through MsgRingUpdate frames and adopted
// monotonically by epoch. A membership change runs as a two-epoch protocol:
//
//   - epoch e+1 (transition): the full ring including the subject, tagged
//     PhaseJoin or PhaseLeave. During this dual-route window every
//     coordinator serves reads from the PREVIOUS ring (whose members all
//     hold their data) while fanning writes to the UNION of the old and new
//     owner sets, so no acked write is stranded on the losing side of the
//     move.
//   - epoch e+2 (stable): announced by the subject once key-range streaming
//     has caught the new owners up; reads cut over to the new ring.
//
// A joining node pulls its owed ranges from current owners page by page
// (MsgStreamReq/MsgStreamChunk, cursor-paginated so the server stays
// stateless); a decommissioning node pushes its arcs to the gainers through
// the coalesced batch-write path. Both sides apply streamed values only for
// absent keys, so a page carrying a pre-move value can never clobber a
// dual-routed write that arrived first.
//
// Announcements are pushed best-effort with acks: a member that misses one
// (crashed, partitioned) keeps serving on its older topology — reads stay
// correct because the old owners retain their data until the NEXT membership
// change — and re-converges on the next announcement it does receive, since
// adoption is by epoch comparison, not by delta. Membership operations
// themselves must be serialized by the operator (one join or decommission at
// a time); a member mid-transition refuses to admit another.

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"c3/internal/core"
	"c3/internal/ring"
	"c3/internal/wire"
)

// Membership errors.
var (
	// ErrWrongEpoch reports a streaming RPC rejected because the peer's
	// topology epoch differs from the requester's; the requester re-reads
	// its topology and retries against the newer ring.
	ErrWrongEpoch = errors.New("kvstore: topology epoch mismatch")
	// errMembershipBusy refuses to start a membership change while another
	// transition window is open.
	errMembershipBusy = errors.New("kvstore: membership change already in progress")
	// errUnknownPeer reports an RPC toward a server the current topology
	// has no address for (departed, or an announcement not yet received).
	errUnknownPeer = errors.New("kvstore: no address for peer in current topology")
)

// Streaming knobs: page size in keys and bytes for the pull path, chunk size
// for the push path, and the per-range catch-up budget.
const (
	streamPageKeys   = 512
	streamPageBytes  = 1 << 20
	streamPushKeys   = 512
	streamBudget     = 30 * time.Second
	ringPushTimeout  = 2 * time.Second
	joinReqTimeout   = 10 * time.Second
	streamRetryPause = 20 * time.Millisecond
)

// topology is one immutable adopted epoch: the target ring, the predecessor
// ring while a dual-route window is open, and the member address book. The
// hot path reads it through one atomic pointer load; successors are
// installed under Node.memberMu.
type topology struct {
	v       *ring.Versioned // target ring of this epoch
	prev    *ring.Versioned // pre-transition ring; nil once stable
	phase   uint8           // wire.PhaseStable / PhaseJoin / PhaseLeave
	subject core.ServerID   // joining/leaving node; -1 when stable
	addrs   []string        // listen addresses indexed by ServerID; "" unknown
	update  wire.RingUpdate // canonical announcement (ID zero) for re-encoding
}

func (t *topology) epoch() uint64 { return t.v.Epoch() }

// readRing is the ring reads route through: during a transition window the
// previous ring, whose members all still hold their ranges; the target ring
// once stable.
func (t *topology) readRing() *ring.Ring {
	if t.prev != nil {
		return t.prev.Ring()
	}
	return t.v.Ring()
}

// writeGroup appends the write fan-out for key to dst: the target ring's
// owners, unioned with the previous ring's during a transition window.
func (t *topology) writeGroup(key []byte, dst []core.ServerID) []core.ServerID {
	tok := ring.Token(key)
	dst = t.v.Ring().ReplicasForToken(tok, dst)
	if t.prev != nil {
		var pbuf [8]core.ServerID
		for _, s := range t.prev.Ring().ReplicasForToken(tok, pbuf[:0]) {
			if !slices.Contains(dst, s) {
				dst = append(dst, s)
			}
		}
	}
	return dst
}

// serves reports whether s is a member of either side of the topology.
func (t *topology) serves(s core.ServerID) bool {
	return t.v.Contains(s) || (t.prev != nil && t.prev.Contains(s))
}

// addrOf reports the listen address of id, or "" when unknown.
func (t *topology) addrOf(id core.ServerID) string {
	if int(id) >= 0 && int(id) < len(t.addrs) {
		return t.addrs[id]
	}
	return ""
}

// buildUpdate assembles the canonical announcement for an epoch: the
// SUPERSET ring (the side that includes the subject) plus phase and subject,
// from which a receiver derives both sides of the window.
func buildUpdate(epoch uint64, phase uint8, subject core.ServerID, superset *ring.Versioned, addrs []string) wire.RingUpdate {
	ids, tokens := superset.Members(), superset.Tokens()
	u := wire.RingUpdate{
		Epoch:   epoch,
		RF:      uint8(superset.RF()),
		Phase:   phase,
		Subject: int32(subject),
		Nodes:   make([]wire.RingNode, len(ids)),
	}
	for i := range ids {
		addr := ""
		if int(ids[i]) < len(addrs) {
			addr = addrs[ids[i]]
		}
		u.Nodes[i] = wire.RingNode{ID: int32(ids[i]), Token: tokens[i], Addr: addr}
	}
	return u
}

// topologyFromUpdate reconstructs an adoptable topology from an
// announcement. The update's node list always includes the subject; the
// phase says which side of the window it describes.
func topologyFromUpdate(u *wire.RingUpdate) (*topology, error) {
	ids := make([]core.ServerID, len(u.Nodes))
	tokens := make([]int64, len(u.Nodes))
	maxID := core.ServerID(0)
	for i, nd := range u.Nodes {
		ids[i] = core.ServerID(nd.ID)
		tokens[i] = nd.Token
		if ids[i] < 0 {
			return nil, fmt.Errorf("kvstore: negative node id %d in ring update", nd.ID)
		}
		if ids[i] > maxID {
			maxID = ids[i]
		}
	}
	addrs := make([]string, maxID+1)
	for _, nd := range u.Nodes {
		addrs[nd.ID] = nd.Addr
	}
	t := &topology{phase: u.Phase, subject: core.ServerID(u.Subject), addrs: addrs}
	t.update = *u
	t.update.ID = 0
	full, err := ring.FromNodes(u.Epoch, ids, tokens, int(u.RF))
	if err != nil {
		return nil, err
	}
	if u.Phase == wire.PhaseStable {
		t.v = full
		t.subject = -1
		return t, nil
	}
	if !full.Contains(core.ServerID(u.Subject)) {
		return nil, fmt.Errorf("kvstore: transition subject %d not in announced ring", u.Subject)
	}
	subIds := make([]core.ServerID, 0, len(ids)-1)
	subTokens := make([]int64, 0, len(ids)-1)
	for i := range ids {
		if ids[i] == core.ServerID(u.Subject) {
			continue
		}
		subIds = append(subIds, ids[i])
		subTokens = append(subTokens, tokens[i])
	}
	switch u.Phase {
	case wire.PhaseJoin:
		// Target includes the joiner; the previous ring is the list minus it.
		t.v = full
		t.prev, err = ring.FromNodes(u.Epoch-1, subIds, subTokens, int(u.RF))
	case wire.PhaseLeave:
		// Target excludes the leaver; the previous ring is the full list.
		t.v, err = ring.FromNodes(u.Epoch, subIds, subTokens, int(u.RF))
		if err == nil {
			t.prev, err = ring.FromNodes(u.Epoch-1, ids, tokens, int(u.RF))
		}
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// activationUpdate derives the stable announcement that closes this
// topology's window: the target ring, one epoch later.
func (t *topology) activationUpdate() wire.RingUpdate {
	return buildUpdate(t.epoch()+1, wire.PhaseStable, -1, t.v, t.addrs)
}

// bootTopology is epoch 0: a fixed fleet with equal token spacing and ids
// 0..n-1 — exactly the layout StartCluster always wired, now versioned.
func bootTopology(addrs []string, rf int) (*topology, error) {
	if len(addrs) == 0 {
		return nil, errors.New("kvstore: no addresses")
	}
	if rf < 1 || rf > len(addrs) {
		return nil, fmt.Errorf("kvstore: replication factor %d outside [1, %d]", rf, len(addrs))
	}
	v := ring.NewVersioned(len(addrs), rf)
	t := &topology{
		v:       v,
		phase:   wire.PhaseStable,
		subject: -1,
		addrs:   append([]string(nil), addrs...),
	}
	t.update = buildUpdate(0, wire.PhaseStable, -1, v, t.addrs)
	return t, nil
}

// Epoch reports the node's current topology epoch.
func (n *Node) Epoch() uint64 { return n.topo.Load().epoch() }

// Members lists the current target ring's member ids.
func (n *Node) Members() []core.ServerID {
	return append([]core.ServerID(nil), n.topo.Load().v.Members()...)
}

// InTransition reports whether a dual-route window is open at this node.
func (n *Node) InTransition() bool { return n.topo.Load().prev != nil }

// readRing exposes the ring reads currently route through (tests and
// diagnostics).
func (n *Node) readRing() *ring.Ring { return n.topo.Load().readRing() }

// installTopology interns new members, grows the peer table, and publishes
// nt. Callers hold n.memberMu.
func (n *Node) installTopology(nt *topology) {
	n.reg.InternAll(nt.v.Members()...)
	if nt.prev != nil {
		n.reg.InternAll(nt.prev.Members()...)
	}
	n.peersMu.Lock()
	for len(n.peers) < len(nt.addrs) {
		n.peers = append(n.peers, nil)
	}
	n.peersMu.Unlock()
	n.topo.Store(nt)
}

// adoptUpdate applies an announcement if it is newer than the current
// topology, reporting the node's resulting epoch either way.
func (n *Node) adoptUpdate(u *wire.RingUpdate) uint64 {
	n.memberMu.Lock()
	defer n.memberMu.Unlock()
	cur := n.topo.Load()
	if u.Epoch <= cur.epoch() {
		return cur.epoch()
	}
	nt, err := topologyFromUpdate(u)
	if err != nil {
		return cur.epoch() // malformed announcement: keep serving on ours
	}
	n.installTopology(nt)
	return nt.epoch()
}

// respondRingUpdate handles a pushed announcement: adopt-if-newer, then ack
// with the resulting epoch (an ack above the push's epoch tells the sender
// it raced a newer topology).
func (n *Node) respondRingUpdate(cw *connWriter, u wire.RingUpdate) {
	epoch := n.adoptUpdate(&u)
	fb := getBuf()
	b, err := wire.AppendRingAck((*fb)[:0], wire.RingAck{ID: u.ID, Epoch: epoch})
	if err != nil {
		putBuf(fb)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// broadcastUpdate pushes an announcement to every target (skipping self),
// waiting for acks with a per-peer timeout. Delivery is best-effort: a
// crashed member stays on its older epoch and re-converges from the next
// announcement it receives.
func (n *Node) broadcastUpdate(u wire.RingUpdate, targets []core.ServerID) {
	done := make(chan struct{}, len(targets))
	count := 0
	for _, s := range targets {
		if s == n.id {
			continue
		}
		count++
		s := s
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() { done <- struct{}{} }()
			if p, err := n.peer(s); err == nil {
				p.pushRing(u, ringPushTimeout)
			}
		}()
	}
	for i := 0; i < count; i++ {
		<-done
	}
}

// respondJoin admits a new member: assign the next id, bisect the widest
// arc, announce the PhaseJoin transition to the current fleet, and hand the
// transition topology back to the joiner. A join refused mid-transition (or
// past ring capacity) severs the connection, failing the joiner's RPC fast.
func (n *Node) respondJoin(cw *connWriter, id uint64, addr string) {
	u, err := n.admitJoiner(addr)
	if err != nil {
		cw.sever(err)
		return
	}
	u.ID = id
	fb := getBuf()
	b, err := wire.AppendRingUpdate((*fb)[:0], u)
	if err != nil {
		putBuf(fb)
		cw.sever(err)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// admitJoiner computes and installs the join transition, then broadcasts it
// to the pre-join fleet. The returned announcement (ID zero) is what the
// joiner adopts.
func (n *Node) admitJoiner(addr string) (wire.RingUpdate, error) {
	n.memberMu.Lock()
	cur := n.topo.Load()
	if cur.phase != wire.PhaseStable {
		n.memberMu.Unlock()
		return wire.RingUpdate{}, errMembershipBusy
	}
	newID := cur.v.MaxID() + 1
	nv, err := cur.v.AddNode(newID)
	if err != nil {
		n.memberMu.Unlock()
		return wire.RingUpdate{}, err
	}
	addrs := make([]string, newID+1)
	copy(addrs, cur.addrs)
	addrs[newID] = addr
	u := buildUpdate(nv.Epoch(), wire.PhaseJoin, newID, nv, addrs)
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		n.memberMu.Unlock()
		return wire.RingUpdate{}, err
	}
	n.installTopology(nt)
	targets := append([]core.ServerID(nil), cur.v.Members()...)
	n.memberMu.Unlock()
	n.broadcastUpdate(u, targets)
	return u, nil
}

// JoinCluster starts a fresh node on listenAddr and admits it into the live
// cluster reachable at seedAddr: it receives the transition topology (and
// its assigned id) from the seed, serves dual-routed writes immediately,
// pulls its owed key ranges from the current owners, and only then
// broadcasts the stable epoch that cuts reads over to the new ring. It
// returns once the node is a fully caught-up read-serving member.
func JoinCluster(seedAddr, listenAddr string, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", seedAddr, peerDialTimeout)
	if err != nil {
		ln.Close()
		return nil, err
	}
	seed := newRPCConn(conn)
	u, err := seed.joinReq(ln.Addr().String(), joinReqTimeout)
	seed.close()
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("kvstore: join via %s: %w", seedAddr, err)
	}
	nt, err := topologyFromUpdate(u)
	if err != nil || nt.phase != wire.PhaseJoin {
		ln.Close()
		return nil, fmt.Errorf("kvstore: join response unusable: %v", err)
	}
	n, err := newNode(core.ServerID(u.Subject), nt, ln, cfg)
	if err != nil {
		return nil, err
	}
	if err := n.catchUp(); err != nil {
		// Roll the fleet back to the pre-join membership at a fresh stable
		// epoch — without this the transition window (and the dual-route
		// write fan toward this dead joiner) would stay open forever. A
		// joiner that CRASHES here instead of erroring still wedges the
		// window; un-wedging that needs a failure detector with leases,
		// which this layer does not have yet (operators can bounce the
		// fleet, whose boot topology is stable).
		n.abortJoin()
		n.Close()
		return nil, err
	}
	n.activate()
	return n, nil
}

// abortJoin closes a failed join's transition window by announcing the
// PRE-join ring as a fresh stable epoch: membership reverts, writes stop
// fanning to this node, and the next Join/Decommission is admissible again.
func (n *Node) abortJoin() {
	n.memberMu.Lock()
	cur := n.topo.Load()
	if cur.phase != wire.PhaseJoin || cur.subject != n.id || cur.prev == nil {
		n.memberMu.Unlock()
		return
	}
	u := buildUpdate(cur.epoch()+1, wire.PhaseStable, -1, cur.prev, cur.addrs)
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		n.memberMu.Unlock()
		return
	}
	n.installTopology(nt)
	targets := append([]core.ServerID(nil), cur.prev.Members()...)
	n.memberMu.Unlock()
	n.broadcastUpdate(u, targets)
}

// catchUp streams every range the join moved onto this node from its current
// owners, page by page. Streamed values fill only absent keys — a page
// carrying a pre-move value must never clobber a dual-routed write that
// landed first.
func (n *Node) catchUp() error {
	t := n.topo.Load()
	if t.prev == nil {
		return nil
	}
	for _, c := range t.prev.Diff(t.v) {
		if !slices.Contains(c.New, n.id) || slices.Contains(c.Old, n.id) {
			continue
		}
		if err := n.pullRange(c, t.epoch()); err != nil {
			return err
		}
	}
	return nil
}

// pullRange pages one owed arc in from its owners. All pages of the arc
// come from ONE owner (pagination cursors only compose against a single
// replica's key set); the puller rotates to the next owner — restarting the
// arc from the beginning — only when the current one fails, and retries
// wrong-epoch rejections (an owner that has not yet adopted the transition)
// until the budget expires.
func (n *Node) pullRange(c ring.Change, epoch uint64) error {
	deadline := time.Now().Add(streamBudget)
	cursor := ""
	var lastErr error
	for src := 0; ; {
		owner := c.Old[src%len(c.Old)]
		page, err := n.streamPullFrom(owner, epoch, c.Start, c.End, cursor)
		if err != nil {
			lastErr = err
			if time.Now().After(deadline) {
				return fmt.Errorf("kvstore: streaming range (%d, %d]: %w", c.Start, c.End, lastErr)
			}
			src++       // a different owner's key set: cursors don't carry over
			cursor = "" // re-pull the arc from its start (the version guard dedups)
			time.Sleep(streamRetryPause)
			continue
		}
		// Only older-or-absent keys land: the version check and write are
		// atomic in the store, so a dual-routed write racing this page
		// always wins.
		if err := n.applyStreamed(page.keys, page.vals); err != nil {
			return fmt.Errorf("kvstore: applying streamed page: %w", err)
		}
		if len(page.keys) > 0 {
			cursor = page.keys[len(page.keys)-1]
		}
		if page.done {
			return nil
		}
	}
}

// streamPullFrom requests one page from owner, mapping a wrong-epoch
// rejection to ErrWrongEpoch.
func (n *Node) streamPullFrom(owner core.ServerID, epoch uint64, start, end int64, cursor string) (*streamPage, error) {
	p, err := n.peer(owner)
	if err != nil {
		return nil, err
	}
	page, err := p.streamPull(wire.StreamReq{Epoch: epoch, Start: start, End: end, Cursor: cursor})
	if err != nil {
		return nil, err
	}
	if page.status != wire.StreamOK {
		return nil, fmt.Errorf("%w (ours %d, theirs %d)", ErrWrongEpoch, epoch, page.epoch)
	}
	return page, nil
}

// activate closes this node's transition window: install the stable
// successor epoch locally, then announce it to the fleet. Reads cut over to
// the target ring as each member adopts.
func (n *Node) activate() {
	n.memberMu.Lock()
	cur := n.topo.Load()
	if cur.prev == nil {
		n.memberMu.Unlock()
		return
	}
	u := cur.activationUpdate()
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		n.memberMu.Unlock()
		return
	}
	n.installTopology(nt)
	// Announce to both sides of the window: a leaver is not in the target
	// ring but must still learn its own departure epoch.
	targets := append([]core.ServerID(nil), cur.v.Members()...)
	for _, s := range cur.prev.Members() {
		if !slices.Contains(targets, s) {
			targets = append(targets, s)
		}
	}
	n.memberMu.Unlock()
	n.broadcastUpdate(u, targets)
}

// Decommission removes this node from the cluster while it keeps serving:
// announce the PhaseLeave transition (reads stay on the old ring, writes
// dual-route), push every arc this node owns to its gainers through the
// batch-write path, then announce the stable successor epoch. The node stays
// up for straggling internal reads until the caller Closes it.
func (n *Node) Decommission() error {
	n.memberMu.Lock()
	cur := n.topo.Load()
	if cur.phase != wire.PhaseStable {
		n.memberMu.Unlock()
		return errMembershipBusy
	}
	nv, err := cur.v.RemoveNode(n.id)
	if err != nil {
		n.memberMu.Unlock()
		return err
	}
	u := buildUpdate(nv.Epoch(), wire.PhaseLeave, n.id, cur.v, cur.addrs)
	nt, err := topologyFromUpdate(&u)
	if err != nil {
		n.memberMu.Unlock()
		return err
	}
	n.installTopology(nt)
	targets := append([]core.ServerID(nil), cur.v.Members()...)
	n.memberMu.Unlock()
	n.broadcastUpdate(u, targets)
	n.streamOut()
	n.activate()
	return nil
}

// streamOut pushes every arc the leave re-homes to its gainers as coalesced
// MsgStreamPush pages — the batch-write frame layout and encoders, values
// version-prefixed — which the gainer lands through its shard writers under
// the last-write-wins guard, the way it lands a read repair's write-back, so
// a pre-move value can never clobber a newer dual-routed write already on
// the gainer. Push failures are tolerated: the remaining replicas of each arc
// still hold the data, and read repair re-propagates it.
func (n *Node) streamOut() {
	t := n.topo.Load()
	if t.prev == nil {
		return
	}
	live := n.store.AppendLiveKeys(nil)
	var keys []string
	var vals [][]byte
	for _, c := range t.prev.Diff(t.v) {
		if !slices.Contains(c.Old, n.id) {
			continue
		}
		var gainers []core.ServerID
		for _, s := range c.New {
			if !slices.Contains(c.Old, s) {
				gainers = append(gainers, s)
			}
		}
		if len(gainers) == 0 {
			continue
		}
		keys = keys[:0]
		for _, k := range live {
			if c.Contains(ring.Token([]byte(k))) {
				keys = append(keys, k)
			}
		}
		for start := 0; start < len(keys); start += streamPushKeys {
			end := min(start+streamPushKeys, len(keys))
			chunk := keys[start:end]
			vals = vals[:0]
			for _, k := range chunk {
				v, _ := n.store.Get(k)
				vals = append(vals, v)
			}
			for _, g := range gainers {
				if p, err := n.peer(g); err == nil {
					p.batchWrite(wire.MsgStreamPush, 0, 0, false, chunk, vals, nil)
				}
			}
		}
	}
}

// streamScan caches the sorted live keys of the arc currently being pulled
// from this node, keyed by (epoch, arc). One snapshot serves every page of
// the pull instead of rebuilding and re-sorting the whole key set per page
// (which would make a K-key join O(K²·log K) on the serving replica). Keys
// written after the snapshot are covered by dual-routed writes reaching the
// puller directly, so their absence from the stream loses nothing.
type streamScan struct {
	mu         sync.Mutex
	epoch      uint64
	start, end int64
	keys       []string
}

// arcKeys returns the sorted live keys inside the arc at the given epoch,
// building the snapshot once per (epoch, arc). The returned slice is
// immutable by convention.
func (n *Node) arcKeys(epoch uint64, arc ring.Range) []string {
	sc := &n.scan
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.keys != nil && sc.epoch == epoch && sc.start == arc.Start && sc.end == arc.End {
		return sc.keys
	}
	keys := make([]string, 0, 1024)
	for _, k := range n.store.AppendLiveKeys(nil) {
		if arc.Contains(ring.Token([]byte(k))) {
			keys = append(keys, k)
		}
	}
	sc.epoch, sc.start, sc.end, sc.keys = epoch, arc.Start, arc.End, keys
	return keys
}

// respondStream serves one page of a key-range pull: the live keys inside
// the requested arc, strictly after the cursor, in ascending order — values
// streamed straight from the storage engine into the chunk frame. A request
// whose epoch does not match the node's current topology is rejected with
// StreamWrongEpoch and the node's epoch.
func (n *Node) respondStream(cw *connWriter, m wire.StreamReq) {
	t := n.topo.Load()
	fb := getBuf()
	if m.Epoch != t.epoch() {
		b, err := wire.AppendStreamChunk((*fb)[:0], wire.StreamChunk{
			ID: m.ID, Status: wire.StreamWrongEpoch, Epoch: t.epoch(), Done: true})
		if err != nil {
			putBuf(fb)
			return
		}
		*fb = b
		cw.enqueue(fb)
		return
	}
	arc := ring.Range{Start: m.Start, End: m.End}
	keys := n.arcKeys(t.epoch(), arc)
	// First key strictly after the cursor (the snapshot is sorted).
	from := sort.SearchStrings(keys, m.Cursor)
	for from < len(keys) && keys[from] <= m.Cursor {
		from++
	}
	b, mark := wire.BeginStreamChunk((*fb)[:0], m.ID, t.epoch())
	count, done := 0, true
	var err error
	for _, k := range keys[from:] {
		if count >= streamPageKeys || len(b) >= streamPageBytes {
			done = false // at least one more matching key remains
			break
		}
		pre := len(b)
		if b, err = wire.BeginStreamItem(b, &mark, k); err != nil {
			break
		}
		var found bool
		if b, found = n.store.GetAppend(b, k); !found {
			// The key died between the snapshot and the read (a racing
			// delete); drop the opened item.
			b = b[:pre]
			mark.CancelItem()
			continue
		}
		if b, err = wire.FinishStreamItem(b, &mark); err != nil {
			break
		}
		count++
	}
	if err == nil {
		b, err = wire.FinishStreamChunk(b, mark, done)
	}
	if err != nil {
		putBuf(fb)
		cw.sever(err)
		return
	}
	*fb = b
	cw.enqueue(fb)
}

// Join starts a fresh node on a loopback port and admits it into this
// cluster through node 0 — the test and demo harness for live growth. The
// node is appended to c.Nodes.
func (c *Cluster) Join(cfg Config) (*Node, error) {
	seed := ""
	for _, n := range c.Nodes {
		if n != nil {
			seed = n.Addr()
			break
		}
	}
	if seed == "" {
		return nil, errors.New("kvstore: no live seed node")
	}
	n, err := JoinCluster(seed, "127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// RebuildFromPeers re-populates this node's storage from its co-replicas —
// the recovery path for a node that lost its disk and restarted empty over
// the same id and address. It walks every ring arc whose replica set
// includes this node and pulls it, page by page, from the other owners
// through the same streaming machinery membership transitions use. Streamed
// values land only for absent keys, so writes arriving concurrently (the
// node is already serving) always win over the older streamed copies. The
// cluster must be membership-stable; mid-transition rebuilds return
// errMembershipBusy, and peers still on a different epoch reject pulls until
// the topology reconverges.
func (n *Node) RebuildFromPeers() error {
	t := n.topo.Load()
	if t.prev != nil {
		return errMembershipBusy
	}
	tokens := t.v.Tokens()
	r := t.v.Ring()
	for i, end := range tokens {
		owners := r.ReplicasForToken(end, nil)
		if !slices.Contains(owners, n.id) {
			continue
		}
		others := make([]core.ServerID, 0, len(owners)-1)
		for _, o := range owners {
			if o != n.id {
				others = append(others, o)
			}
		}
		if len(others) == 0 {
			continue // RF=1: no surviving copy of this arc exists
		}
		start := tokens[(i+len(tokens)-1)%len(tokens)]
		c := ring.Change{Range: ring.Range{Start: start, End: end}, Old: others}
		if err := n.pullRange(c, t.epoch()); err != nil {
			return err
		}
	}
	return nil
}
