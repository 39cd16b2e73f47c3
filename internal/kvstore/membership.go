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
// Every key-range move is a push: a decommissioning node pushes its arcs to
// the gainers, and a joining (or rebuilding) node asks a current owner, with
// MsgStreamReq, to push an owed arc to it. The pages are MsgStreamPush
// frames, which the receiver lands through its shard writers under the
// last-write-wins version guard, so a page carrying a pre-move value can
// never clobber a newer dual-routed write that arrived first.
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
	// errPushFailed reports a key-range push cut short: a page could not be
	// sent or was not acked in full.
	errPushFailed = errors.New("kvstore: key-range push failed")
)

// Streaming knobs: a push page is cut at streamPageKeys keys or
// streamPageBytes bytes, whichever comes first; a decommission pushes an arc
// to a gainer at most pushAttempts times.
const (
	streamPageKeys   = 512
	streamPageBytes  = 1 << 20
	pushAttempts     = 3
	ringPushTimeout  = 2 * time.Second
	joinReqTimeout   = 10 * time.Second
	streamRetryPause = 20 * time.Millisecond
)

// Streaming timeouts, variables so tests can shorten them. A node waiting
// for a push gives up on the owner after pushStallWait with no page landing;
// streamBudget bounds one arc's retries. Neither caps a push that keeps
// landing pages: it runs as long as it needs.
var (
	pushStallWait = joinReqTimeout
	streamBudget  = 30 * time.Second
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
// has the current owners push its owed key ranges to it, and only then
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

// catchUp has every range the join moved onto this node pushed to it by a
// current owner. The pages land under the last-write-wins guard, so a
// pre-move value never clobbers a dual-routed write that landed first.
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

// pullRange has one owed arc pushed to this node by one of its owners, which
// answers once every page is acked. The puller rotates to the next owner —
// which pushes the arc again from its start; the version guard dedups — when
// the current one fails or stalls, and retries wrong-epoch rejections (an
// owner that has not yet adopted the transition). The budget bounds the
// retries: a failure past it ends the pull, a push in progress never does.
func (n *Node) pullRange(c ring.Change, epoch uint64) error {
	deadline := time.Now().Add(streamBudget)
	req := wire.StreamReq{Epoch: epoch, Start: c.Start, End: c.End, To: int32(n.id)}
	for src := 0; ; src++ {
		err := n.requestPush(c.Old[src%len(c.Old)], req)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kvstore: streaming range (%d, %d]: %w", c.Start, c.End, err)
		}
		time.Sleep(streamRetryPause)
	}
}

// requestPush asks owner to push req's arc to this node and waits for its
// answer while the push's pages keep landing here, giving up after
// pushStallWait with none. It maps a wrong-epoch rejection to ErrWrongEpoch.
func (n *Node) requestPush(owner core.ServerID, req wire.StreamReq) error {
	p, err := n.peer(owner)
	if err != nil {
		return err
	}
	seen := n.arcPages.Load()
	r, err := p.streamReq(req, pushStallWait, func() bool {
		now := n.arcPages.Load()
		moved := now != seen
		seen = now
		return moved
	})
	switch {
	case err != nil:
		return err
	case r.Status == wire.StreamWrongEpoch:
		return fmt.Errorf("%w (ours %d, theirs %d)", ErrWrongEpoch, req.Epoch, r.Epoch)
	case r.Status != wire.StreamOK:
		return errPushFailed
	}
	return nil
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

// streamOut pushes every arc the leave re-homes to its gainers. A push that
// fails (a reset link, a page not acked in full) is pushed again over a
// fresh link, where the pages that already landed are no-ops under the
// version guard. One that fails pushAttempts times is tolerated: the
// remaining replicas of the arc still hold the data, and read repair
// re-propagates it.
func (n *Node) streamOut() {
	t := n.topo.Load()
	if t.prev == nil {
		return
	}
	live := n.store.AppendLiveKeys(nil)
	for _, c := range t.prev.Diff(t.v) {
		if !slices.Contains(c.Old, n.id) {
			continue
		}
		for _, s := range c.New {
			if slices.Contains(c.Old, s) {
				continue
			}
			for try := 1; n.pushArc(c.Range, s, live) != nil && try < pushAttempts; try++ {
				time.Sleep(peerRedialBackoff) // past the fail-fast window: redial
			}
		}
	}
}

// pushArc sends the keys of live that fall inside arc to node to as
// MsgStreamPush pages marked wire.ArcPage — the batch-write frame layout,
// values version-prefixed — cut at streamPageKeys keys or streamPageBytes bytes,
// whichever comes first, and waits for each page's ack. The receiver lands
// them through its shard writers under the last-write-wins guard, as it lands
// a read repair's write-back. It fails on the first page that cannot be sent
// or is not acked in full.
func (n *Node) pushArc(arc ring.Range, to core.ServerID, live []string) error {
	p, err := n.peer(to)
	if err != nil {
		return err
	}
	var (
		keys []string
		vals [][]byte
		oks  []bool
		size int
	)
	flush := func() (err error) {
		if len(keys) == 0 {
			return nil
		}
		oks, _, _, err = p.batchWrite(wire.MsgStreamPush, wire.LevelOne, wire.ArcPage, false, keys, vals, oks)
		if err == nil && slices.Contains(oks, false) {
			err = errPushFailed
		}
		keys, vals, size = keys[:0], vals[:0], 0
		return err
	}
	for _, k := range live {
		if !arc.Contains(ring.Token([]byte(k))) {
			continue
		}
		v, ok := n.store.Get(k)
		if !ok {
			continue // deleted since the snapshot
		}
		if len(keys) == streamPageKeys || (len(keys) > 0 && size+len(k)+len(v) > streamPageBytes) {
			if err := flush(); err != nil {
				return err
			}
		}
		keys, vals, size = append(keys, k), append(vals, v), size+len(k)+len(v)
	}
	return flush()
}

// answerStreamReq serves a MsgStreamReq: an owner whose epoch matches the
// requester's pushes the arc's live keys to the requester, then answers with
// the outcome and its epoch. A target the topology has no address for is
// refused before any link to it is set up.
func (n *Node) answerStreamReq(cw *connWriter, m wire.StreamReq) {
	t := n.topo.Load()
	epoch := t.epoch()
	status := wire.StreamOK
	switch to := core.ServerID(m.To); {
	case m.Epoch != epoch:
		status = wire.StreamWrongEpoch
	case t.addrOf(to) == "" || n.pushArc(ring.Range{Start: m.Start, End: m.End}, to, n.store.AppendLiveKeys(nil)) != nil:
		status = wire.StreamPushFailed
	}
	fb := getBuf()
	b, err := wire.AppendStreamChunk((*fb)[:0], wire.StreamChunk{ID: m.ID, Status: status, Epoch: epoch})
	if err != nil {
		putBuf(fb)
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
// includes this node and has one of the other owners push it here, as a
// join does. Streamed values land under the last-write-wins guard, so a
// newer write arriving concurrently (the node is already serving) always
// wins over an older streamed copy. The
// cluster must be membership-stable; mid-transition rebuilds return
// errMembershipBusy, and peers still on a different epoch reject push requests until
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
