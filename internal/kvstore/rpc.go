package kvstore

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/core"
	"c3/internal/wire"
)

// rpcConn is a pipelined request/response connection: many in-flight
// requests multiplex over one TCP stream, matched back by request id. Both
// coordinator→replica links and the external Client use it.
//
// The round trip is allocation-free in steady state: requests are encoded
// into pooled frame buffers and coalesced by the connection's writer
// goroutine; responses are matched through a sharded pending table to pooled
// call records with reusable completion channels, and read values are
// appended directly into the destination buffer the caller supplied.
type rpcConn struct {
	conn net.Conn
	cw   *connWriter

	shards [pendingShards]pendingShard

	isDead atomic.Bool
	nextID atomic.Uint64
}

// pendingShards spreads the pending table's lock across cores (must be a
// power of two).
const pendingShards = 8

type pendingShard struct {
	mu     sync.Mutex
	m      map[uint64]*call
	failed bool
}

// call is one in-flight RPC. Records are pooled; delivery is exactly-once
// (a call is removed from the pending table under its shard lock before it
// is signalled), so a recycled record can never receive a stale response.
type call struct {
	done    chan struct{} // buffered(1); reused across lives
	dst     []byte        // read-value destination: read.Value = append(dst, value...)
	isRead  bool
	isBatch bool
	read    wire.ReadResp
	write   wire.WriteResp
	err     error

	// Event-driven completion (a write leg): a call carrying a gather is
	// delivered by completing keys lo..hi of g from replica from, on the
	// connection's read loop, instead of signalling done — no goroutine ever
	// waits on it.
	g      *writeGather
	from   core.ServerID
	lo, hi int

	// A read-gather leg (rg set) is delivered into its gather as leg number
	// leg instead of signalling done.
	rg  *readGather
	leg int32

	// Batch results (isBatch). Read values are packed into bbuf (grown from
	// dst) with boffs indexing them — key i's value is bbuf[boffs[i]:
	// boffs[i+1]] and bvers[i] its stored version — so copying them out of
	// the frame buffer regrows at most one allocation, never one per key.
	// bfound/boffs/bvers/boks retain capacity across pooled lives; their
	// contents are valid only until putCall.
	bfound  []bool
	boffs   []int
	bvers   []uint64
	bbuf    []byte
	boks    []bool
	bstatus uint8
	bfb     wire.Feedback

	// Membership control results (ctl != ctlNone; cold path, deep copies).
	ctl  uint8
	ru   *wire.RingUpdate
	ack  wire.RingAck
	page *streamPage
}

// Control-call kinds: which membership response frame the call expects.
const (
	ctlNone  uint8 = iota
	ctlRing        // MsgRingUpdate (the join handshake's response)
	ctlAck         // MsgRingAck (a pushed announcement's receipt)
	ctlChunk       // MsgStreamChunk (a key-range page)
)

// streamPage is a deep-copied MsgStreamChunk — membership streaming is a
// cold path, so copying out of the frame buffer beats pooling complexity.
type streamPage struct {
	status uint8
	epoch  uint64
	done   bool
	keys   []string
	vals   [][]byte
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall(isRead bool, dst []byte) *call {
	c := callPool.Get().(*call)
	c.isRead = isRead
	c.dst = dst
	return c
}

func getBatchCall(isRead bool, dst []byte) *call {
	c := getCall(isRead, dst)
	c.isBatch = true
	return c
}

func putCall(c *call) {
	c.dst = nil
	c.read = wire.ReadResp{}
	c.write = wire.WriteResp{}
	c.err = nil
	c.isBatch = false
	c.g = nil
	c.from, c.lo, c.hi = 0, 0, 0
	c.rg, c.leg = nil, 0
	c.bfound = c.bfound[:0]
	c.boffs = c.boffs[:0]
	c.bvers = c.bvers[:0]
	c.bbuf = nil
	c.boks = c.boks[:0]
	c.bstatus = 0
	c.bfb = wire.Feedback{}
	c.ctl = ctlNone
	c.ru = nil
	c.ack = wire.RingAck{}
	c.page = nil
	callPool.Put(c)
}

var (
	errConnDead       = errors.New("kvstore: connection closed")
	errMismatchedResp = errors.New("kvstore: mismatched response type")
)

func newRPCConn(conn net.Conn) *rpcConn {
	p := &rpcConn{conn: conn, cw: newConnWriter(conn)}
	for i := range p.shards {
		p.shards[i].m = make(map[uint64]*call)
	}
	go p.cw.loop()
	go p.readLoop()
	return p
}

func (p *rpcConn) dead() bool { return p.isDead.Load() }

func (p *rpcConn) close() { p.conn.Close() }

func (p *rpcConn) shard(id uint64) *pendingShard { return &p.shards[id&(pendingShards-1)] }

// register installs c under a fresh request id.
func (p *rpcConn) register(c *call) (uint64, error) {
	id := p.nextID.Add(1)
	s := p.shard(id)
	s.mu.Lock()
	if s.failed {
		s.mu.Unlock()
		return 0, errConnDead
	}
	s.m[id] = c
	s.mu.Unlock()
	return id, nil
}

// take removes and returns the call registered under id, or nil if it is
// gone (already delivered or failed).
func (p *rpcConn) take(id uint64) *call {
	s := p.shard(id)
	s.mu.Lock()
	c := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return c
}

// deliver completes a taken call: a waiter-style call is signalled on its
// done channel; a write leg is consumed here — on the read loop — by feeding
// its per-key outcome to the write gather, and a read-gather leg is handed to
// its gather. Every delivery site (response matched, mismatched type,
// failAll) routes through this, so a leg is completed exactly once no matter
// how the call resolves.
func deliver(c *call) {
	if rg := c.rg; rg != nil {
		rg.arrive(c)
		return
	}
	if g := c.g; g != nil {
		var oks []bool
		switch {
		case c.err != nil:
		case c.isBatch:
			if len(c.boks) == c.hi-c.lo {
				oks = c.boks
			}
		case c.write.OK:
			oks = allOK[:1]
		}
		g.complete(c.from, c.lo, c.hi, oks, c.err != nil)
		putCall(c)
		return
	}
	c.done <- struct{}{}
}

// expects is the response frame type c waits for.
func (c *call) expects() uint8 {
	switch {
	case c.ctl == ctlRing:
		return wire.MsgRingUpdate
	case c.ctl == ctlAck:
		return wire.MsgRingAck
	case c.ctl == ctlChunk:
		return wire.MsgStreamChunk
	case c.isRead && c.isBatch:
		return wire.MsgBatchReadResp
	case c.isRead:
		return wire.MsgReadResp
	case c.isBatch:
		return wire.MsgBatchWriteResp
	}
	return wire.MsgWriteResp
}

// match returns the call waiting for a decoded response of type typ under id,
// or nil: when nobody waits any more (a late answer to a withdrawn call), or
// when the frame failed to decode (err) or answers a call expecting another
// type — then the connection is failed, which stops the read loop.
func (p *rpcConn) match(typ uint8, id uint64, err error) *call {
	if err == nil {
		c := p.take(id)
		if c == nil || c.expects() == typ {
			return c
		}
		c.err = errMismatchedResp
		deliver(c)
	}
	p.failAll()
	return nil
}

// readLoop demultiplexes responses to their waiters; on error it fails every
// outstanding call.
func (p *rpcConn) readLoop() {
	r := wire.NewReader(p.conn)
	var items []wire.BatchItem // decode scratch, reused across frames
	var oks []bool
	for !p.dead() {
		typ, payload, err := r.Next()
		if err != nil {
			p.failAll()
			return
		}
		switch typ {
		case wire.MsgReadResp:
			m, err := wire.ParseReadResp(payload) // Value aliases payload
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			// Copy the value out of the frame buffer into the waiter's
			// destination before anything aliasing the frame is published
			// to the call record — c.read must never hold frame memory,
			// even transiently.
			m.Value = append(c.dst, m.Value...)
			c.read = m
			if c.rg != nil { // a one-key read-gather leg answers in the batch layout
				c.bfound, c.bvers = append(c.bfound[:0], m.Found), append(c.bvers[:0], m.Version)
				c.boffs, c.bbuf, c.bfb = append(c.boffs[:0], 0, len(m.Value)), m.Value, m.FB
			}
			deliver(c)
		case wire.MsgWriteResp:
			m, err := wire.ParseWriteResp(payload)
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			c.write = m
			deliver(c)
		case wire.MsgBatchReadResp:
			m, err := wire.ParseBatchReadResp(payload, items[:0]) // Values alias payload
			items = m.Items
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			// Pack every value into one buffer grown from the waiter's
			// destination, recording offsets — the values must leave the
			// frame buffer before the next Next, and one packed copy beats a
			// per-key allocation.
			total := 0
			for _, it := range m.Items {
				total += len(it.Value)
			}
			buf := c.dst
			if cap(buf)-len(buf) < total {
				grown := make([]byte, len(buf), len(buf)+total)
				copy(grown, buf)
				buf = grown
			}
			found, offs, vers := c.bfound[:0], c.boffs[:0], c.bvers[:0]
			offs = append(offs, len(buf))
			for _, it := range m.Items {
				buf = append(buf, it.Value...)
				found = append(found, it.Found)
				vers = append(vers, it.Version)
				offs = append(offs, len(buf))
			}
			c.bfound, c.boffs, c.bvers, c.bbuf, c.bfb = found, offs, vers, buf, m.FB
			deliver(c)
		case wire.MsgBatchWriteResp:
			m, err := wire.ParseBatchWriteResp(payload, oks[:0])
			oks = m.OK
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			c.boks = append(c.boks[:0], m.OK...)
			c.bstatus = m.Status
			c.bfb = m.FB
			deliver(c)
		case wire.MsgRingUpdate:
			// The response to a join handshake. Deep-copied: announcement
			// addresses alias the frame buffer.
			m, err := wire.ParseRingUpdate(payload)
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			cp := m
			cp.Nodes = append([]wire.RingNode(nil), m.Nodes...)
			for i := range cp.Nodes {
				cp.Nodes[i].Addr = strings.Clone(cp.Nodes[i].Addr)
			}
			c.ru = &cp
			deliver(c)
		case wire.MsgRingAck:
			m, err := wire.ParseRingAck(payload)
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			c.ack = m
			deliver(c)
		case wire.MsgStreamChunk:
			m, err := wire.ParseStreamChunk(payload, nil, nil) // aliases payload
			c := p.match(typ, m.ID, err)
			if c == nil {
				continue
			}
			pg := &streamPage{status: m.Status, epoch: m.Epoch, done: m.Done,
				keys: make([]string, len(m.Keys)), vals: make([][]byte, len(m.Values))}
			for i := range m.Keys {
				pg.keys[i] = strings.Clone(m.Keys[i])
				pg.vals[i] = append([]byte(nil), m.Values[i]...)
			}
			c.page = pg
			deliver(c)
		default:
			p.failAll()
			return
		}
	}
}

// failAll severs the connection and fails every outstanding call exactly
// once. Safe to run concurrently with registrations and deliveries: shards
// are marked failed under their locks, so no new call can slip in after its
// shard was drained.
func (p *rpcConn) failAll() {
	p.isDead.Store(true)
	p.conn.Close()
	p.cw.close()
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.failed = true
		calls := make([]*call, 0, len(s.m))
		for id, c := range s.m {
			calls = append(calls, c)
			delete(s.m, id)
		}
		s.mu.Unlock()
		for _, c := range calls {
			c.err = errConnDead
			deliver(c)
		}
	}
}

// send registers c under a fresh request id and enqueues the frame enc
// encodes for that id. A nil return hands c to the delivery machinery: a
// waiter is signalled on its done channel, a write leg (c.g set) or a read
// leg (c.rg set) completes into its gather. On error the request never left
// and c is recycled; a leg is then still the caller's to complete.
func (p *rpcConn) send(c *call, enc func(dst []byte, id uint64) ([]byte, error)) error {
	leg := c.g != nil || c.rg != nil
	id, err := p.register(c)
	if err != nil {
		putCall(c)
		return err
	}
	fb := getBuf()
	b, err := enc((*fb)[:0], id)
	if err != nil {
		putBuf(fb)
	} else {
		*fb = b
		err = p.cw.enqueue(fb) // recycles the frame on failure
	}
	if err == nil {
		return nil
	}
	if p.take(id) == nil {
		// A concurrent failAll claimed the call and delivers it: a leg is
		// completed there; a waiter's signal is consumed here, so the pooled
		// record carries no stale wakeup.
		if leg {
			return nil
		}
		<-c.done
	}
	putCall(c)
	return err
}

// clientRead performs a coordinated read RPC at a consistency level
// (external client use).
func (p *rpcConn) clientRead(cl uint8, key string, dst []byte) (wire.ReadResp, error) {
	return p.readTyped(wire.MsgRead, wire.ReadReq{CL: cl, Key: key}, dst)
}

// readTyped performs a blocking read RPC of type typ carrying m's CL, Digest
// and Key under a fresh request id. The response value is appended to dst;
// passing nil allocates a fresh caller-owned buffer.
func (p *rpcConn) readTyped(typ uint8, m wire.ReadReq, dst []byte) (wire.ReadResp, error) {
	c := getCall(true, dst)
	if err := p.send(c, func(b []byte, id uint64) ([]byte, error) {
		return wire.AppendReadReq(b, typ, wire.ReadReq{ID: id, CL: m.CL, Digest: m.Digest, Key: m.Key})
	}); err != nil {
		return wire.ReadResp{}, err
	}
	<-c.done
	resp, err := c.read, c.err
	putCall(c)
	return resp, err
}

// batchReadAsync dispatches a batch read RPC of keys — version-only when
// digest is set — without blocking, on the caller's batch read call record c
// (see getBatchCall): a waiter (batchRead) or a read-gather leg. The
// sub-batch is one frame, one pooled call record, one pending-table entry,
// however many keys it carries. Once delivered, c.bfound/boffs/bvers/bbuf
// hold the answer, the values packed into a buffer grown from c.dst; the
// consumer recycles the record with putCall exactly once.
func (p *rpcConn) batchReadAsync(c *call, typ uint8, cl uint8, digest bool, keys []string) error {
	return p.send(c, func(b []byte, id uint64) ([]byte, error) {
		return wire.AppendBatchReadReq(b, typ, wire.BatchReadReq{ID: id, CL: cl, Digest: digest, Keys: keys})
	})
}

// batchRead performs a blocking batch read RPC at level cl, the values packed
// into a buffer grown from dst. See batchReadAsync for the ownership contract
// of the returned call.
func (p *rpcConn) batchRead(typ, cl uint8, keys []string, dst []byte) (*call, error) {
	c := getBatchCall(true, dst)
	if err := p.batchReadAsync(c, typ, cl, false, keys); err != nil {
		return nil, err
	}
	<-c.done
	if c.err != nil {
		err := c.err
		putCall(c)
		return nil, err
	}
	return c, nil
}

// batchWriteAsync dispatches a batch write RPC at the given level and
// version stamp without blocking, on the caller's batch call record c: a
// waiter (batchWrite) or a write leg (see send). The per-key acks land in
// c.boks.
func (p *rpcConn) batchWriteAsync(c *call, typ, cl uint8, ver uint64, keys []string, vals [][]byte) error {
	return p.send(c, func(b []byte, id uint64) ([]byte, error) {
		return wire.AppendBatchWriteReq(b, typ,
			wire.BatchWriteReq{ID: id, CL: cl, Version: ver, Keys: keys, Values: vals})
	})
}

// batchWrite performs a blocking batch write RPC — batchWriteAsync plus a
// wait — appending the per-key acks to oks (pass a reused scratch slice; nil
// allocates). The returned status classifies a coordinator-level failure
// (StatusOK on success and on plain per-key failures).
func (p *rpcConn) batchWrite(typ, cl uint8, ver uint64, keys []string, vals [][]byte, oks []bool) ([]bool, uint8, wire.Feedback, error) {
	c := getBatchCall(false, nil)
	if err := p.batchWriteAsync(c, typ, cl, ver, keys, vals); err != nil {
		return oks, 0, wire.Feedback{}, err
	}
	<-c.done
	oks = append(oks[:0], c.boks...)
	status, feedback, err := c.bstatus, c.bfb, c.err
	putCall(c)
	return oks, status, feedback, err
}

// write performs an internal write RPC carrying the coordinator's version
// stamp (the replica applies it under the last-write-wins guard). del marks
// a guarded tombstone: the replica deletes instead of storing (val ignored).
func (p *rpcConn) write(key string, val []byte, ver uint64, del bool) (wire.WriteResp, error) {
	return p.writeTyped(wire.MsgWriteInternal, wire.LevelOne, ver, key, val, del)
}

// writeAsync dispatches a write RPC without blocking, on the caller's call
// record c: a waiter (writeTyped) or a write leg, whose completion is
// delivered straight to its gather — on this connection's read loop for a
// response, or wherever failAll runs for connection death. A leg spawns
// nothing and nothing waits on it: this is the event-driven half of the
// write fan-out.
func (p *rpcConn) writeAsync(c *call, typ, cl uint8, ver uint64, key string, val []byte, del bool) error {
	return p.send(c, func(b []byte, id uint64) ([]byte, error) {
		return wire.AppendWriteReq(b, typ,
			wire.WriteReq{ID: id, CL: cl, Version: ver, Key: key, Value: val, Del: del})
	})
}

// clientWrite performs a coordinated write RPC at a consistency level; the
// coordinator stamps the version. del requests a coordinated delete.
func (p *rpcConn) clientWrite(cl uint8, key string, val []byte, del bool) (wire.WriteResp, error) {
	return p.writeTyped(wire.MsgWrite, cl, 0, key, val, del)
}

func (p *rpcConn) writeTyped(typ, cl uint8, ver uint64, key string, val []byte, del bool) (wire.WriteResp, error) {
	c := getCall(false, nil)
	if err := p.writeAsync(c, typ, cl, ver, key, val, del); err != nil {
		return wire.WriteResp{}, err
	}
	<-c.done
	resp, err := c.write, c.err
	putCall(c)
	return resp, err
}

// ctlSend registers and dispatches one membership control call: enc encodes
// the request frame under the assigned id. The caller waits on the returned
// call's done channel (ctlWait applies a timeout) and recycles it.
func (p *rpcConn) ctlSend(ctl uint8, enc func(dst []byte, id uint64) ([]byte, error)) (*call, uint64, error) {
	c := getCall(false, nil)
	c.ctl = ctl
	var id uint64
	if err := p.send(c, func(b []byte, i uint64) ([]byte, error) {
		id = i
		return enc(b, i)
	}); err != nil {
		return nil, 0, err
	}
	return c, id, nil
}

var errCtlTimeout = errors.New("kvstore: membership RPC timed out")

// ctlWait blocks for the call's completion up to d; on timeout the call is
// withdrawn from the pending table (a late response is dropped harmlessly).
// If a concurrent delivery already claimed the call, its signal is consumed
// so the pooled record carries no stale wakeup.
func (p *rpcConn) ctlWait(c *call, id uint64, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return nil
	case <-t.C:
		if p.take(id) == nil {
			<-c.done
		}
		putCall(c)
		return errCtlTimeout
	}
}

// pushRing announces a topology to the peer and waits for its ack.
func (p *rpcConn) pushRing(u wire.RingUpdate, timeout time.Duration) (wire.RingAck, error) {
	c, id, err := p.ctlSend(ctlAck, func(dst []byte, id uint64) ([]byte, error) {
		u.ID = id
		return wire.AppendRingUpdate(dst, u)
	})
	if err != nil {
		return wire.RingAck{}, err
	}
	if err := p.ctlWait(c, id, timeout); err != nil {
		return wire.RingAck{}, err
	}
	ack, err := c.ack, c.err
	putCall(c)
	return ack, err
}

// joinReq asks the peer to admit addr into the cluster, returning the
// transition topology it announces.
func (p *rpcConn) joinReq(addr string, timeout time.Duration) (*wire.RingUpdate, error) {
	c, id, err := p.ctlSend(ctlRing, func(dst []byte, id uint64) ([]byte, error) {
		return wire.AppendJoinReq(dst, wire.JoinReq{ID: id, Addr: addr})
	})
	if err != nil {
		return nil, err
	}
	if err := p.ctlWait(c, id, timeout); err != nil {
		return nil, err
	}
	u, err := c.ru, c.err
	putCall(c)
	if err != nil {
		return nil, err
	}
	return u, nil
}

// streamPull requests one key-range page from the peer.
func (p *rpcConn) streamPull(req wire.StreamReq) (*streamPage, error) {
	c, id, err := p.ctlSend(ctlChunk, func(dst []byte, id uint64) ([]byte, error) {
		req.ID = id
		return wire.AppendStreamReq(dst, req)
	})
	if err != nil {
		return nil, err
	}
	if err := p.ctlWait(c, id, joinReqTimeout); err != nil {
		return nil, err
	}
	page, err := c.page, c.err
	putCall(c)
	if err != nil {
		return nil, err
	}
	return page, nil
}
