package kvstore

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/ring"
	"c3/internal/wire"
)

// Client is an external (application-side) client of the store. It holds one
// pipelined connection per node and spreads requests across coordinators
// round-robin — the paper's non-token-aware access pattern, where any node
// may coordinate any key.
type Client struct {
	addrs []string

	mu    sync.Mutex
	conns []*rpcConn

	next atomic.Uint64

	// tokenRing, when set, routes each key to its primary replica as
	// coordinator (the Astyanax-style token-aware client of the paper's
	// §7, which avoids overloaded non-replica coordinators).
	tokenRing *ring.Ring
}

// Dial connects a client to the cluster at addrs (connections are
// established lazily).
func Dial(addrs []string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("kvstore: no addresses")
	}
	return &Client{
		addrs: append([]string(nil), addrs...),
		conns: make([]*rpcConn, len(addrs)),
	}, nil
}

func (c *Client) conn(i int) (*rpcConn, error) {
	c.mu.Lock()
	if p := c.conns[i]; p != nil && !p.dead() {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	// Dial outside c.mu: the mutex guards every address slot, so a slow
	// dial to one dead replica must not stall the client's traffic to the
	// healthy ones.
	nc, err := net.DialTimeout("tcp", c.addrs[i], time.Second)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.conns[i]; p != nil && !p.dead() {
		// Lost a dial race; keep the established winner.
		nc.Close()
		return p, nil
	}
	p := newRPCConn(nc)
	c.conns[i] = p
	return p, nil
}

// DialTokenAware returns a Client that coordinates every operation at the
// key's primary replica instead of round-robining, given the cluster's
// replication factor.
func DialTokenAware(addrs []string, rf int) (*Client, error) {
	c, err := Dial(addrs)
	if err != nil {
		return nil, err
	}
	c.tokenRing = ring.New(len(addrs), rf)
	return c, nil
}

// pick chooses the coordinator for a key: its primary replica when token
// aware, round-robin otherwise.
func (c *Client) pick(key string) int {
	if c.tokenRing != nil {
		return int(c.tokenRing.PrimaryFor([]byte(key)))
	}
	return int(c.next.Add(1)-1) % len(c.addrs)
}

// Get reads key through a coordinator at consistency level One, reporting
// whether it exists.
func (c *Client) Get(key string) ([]byte, bool, error) {
	return c.GetAt(key, One)
}

// GetAt reads key through a coordinator at the given consistency level.
// Transport failures rotate to the next coordinator; a coordinator that
// answered but could not satisfy the level returns its verdict directly
// (errors.Is(err, ErrQuorumUnavailable) / ErrTimeout) — the level shortfall
// is a cluster property, not a bad coordinator, so retrying elsewhere would
// only repeat the fan-out.
func (c *Client) GetAt(key string, lvl Level) ([]byte, bool, error) {
	var lastErr error
	for attempt := 0; attempt < len(c.addrs); attempt++ {
		p, err := c.conn(c.pick(key))
		if err != nil {
			lastErr = err
			continue
		}
		// nil destination: the value lands in a fresh buffer owned by
		// the application.
		resp, err := p.clientRead(uint8(lvl), key, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if err := readStatusErr(resp.Status); err != nil {
			return nil, false, err
		}
		val := resp.Value
		if resp.Found && val == nil {
			val = []byte{} // present but empty: distinguishable from missing
		}
		return val, resp.Found, nil
	}
	return nil, false, lastErr
}

// ErrWriteFailed reports a write no replica acknowledged: the coordinator
// reached its whole replica group and every write failed. The write must
// surface as an error — before the OK flag existed, an all-replicas-down
// write was silently acknowledged.
var ErrWriteFailed = errors.New("kvstore: write failed on every replica")

// Put writes key=val through a coordinator at consistency level One.
func (c *Client) Put(key string, val []byte) error {
	return c.PutAt(key, val, One)
}

// PutAt writes key=val through a coordinator at the given consistency level.
// As with GetAt, transport failures rotate coordinators while a definitive
// level shortfall (errors.Is: ErrQuorumUnavailable, ErrTimeout — both also
// ErrWriteFailed) returns immediately.
func (c *Client) PutAt(key string, val []byte, lvl Level) error {
	return c.writeAt(key, val, lvl, false)
}

// Delete removes key through a coordinator at consistency level One.
func (c *Client) Delete(key string) error {
	return c.DeleteAt(key, One)
}

// DeleteAt removes key through a coordinator at the given consistency level.
// A delete travels the write path end to end — version-stamped, replicated
// to the key's whole group, hint-banked on transport failure — so its
// level/retry semantics are exactly PutAt's.
func (c *Client) DeleteAt(key string, lvl Level) error {
	return c.writeAt(key, nil, lvl, true)
}

func (c *Client) writeAt(key string, val []byte, lvl Level, del bool) error {
	var lastErr error
	for attempt := 0; attempt < len(c.addrs); attempt++ {
		p, err := c.conn(c.pick(key))
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := p.clientWrite(uint8(lvl), key, val, del)
		if err != nil {
			lastErr = err
			continue
		}
		if !resp.OK {
			// A classified shortfall is definitive — retrying another
			// coordinator cannot conjure the missing replicas or un-expire
			// the budget. Only the bare write failure rotates.
			if err := writeStatusErr(resp.Status); errors.Is(err, ErrQuorumUnavailable) || errors.Is(err, ErrTimeout) {
				return err
			}
			lastErr = ErrWriteFailed
			continue
		}
		return nil
	}
	return lastErr
}

// MultiGet reads a set of keys through a single coordinator RPC per
// wire.MaxBatchKeys chunk — the scatter-gather batch path: the coordinator
// partitions the keys by replica group, coalesces each group's keys into one
// C3-ranked replica sub-batch, scatters concurrently, and gathers per-key
// results. vals[i]/found[i] report key i; a missing key has found[i] false
// and vals[i] nil. Values within a chunk share one backing array; treat them
// as read-only or copy before appending.
func (c *Client) MultiGet(keys []string) (vals [][]byte, found []bool, err error) {
	return c.MultiGetAt(keys, One)
}

// MultiGetAt is MultiGet at an explicit consistency level: each sub-batch
// gathers the level's R replica responses (merged per key by highest version,
// with stale responders repaired before the batch returns). A sub-batch that
// cannot reach R replicas within the coordinator's budget degrades to
// not-found for its keys, mirroring MultiGet's budget-exhaustion behavior.
func (c *Client) MultiGetAt(keys []string, lvl Level) (vals [][]byte, found []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	for start := 0; start < len(keys); start += wire.MaxBatchKeys {
		end := min(start+wire.MaxBatchKeys, len(keys))
		if err := c.multiGetChunk(lvl, keys[start:end], vals[start:end], found[start:end]); err != nil {
			return nil, nil, err
		}
	}
	return vals, found, nil
}

func (c *Client) multiGetChunk(lvl Level, keys []string, vals [][]byte, found []bool) error {
	var lastErr error
	for attempt := 0; attempt < len(c.addrs); attempt++ {
		p, err := c.conn(c.pick(keys[0]))
		if err != nil {
			lastErr = err
			continue
		}
		// nil destination: the packed values land in a fresh buffer owned by
		// the application.
		ca, err := p.batchRead(wire.MsgBatchRead, uint8(lvl), keys, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if len(ca.bfound) != len(keys) {
			putCall(ca)
			lastErr = errMismatchedResp
			continue
		}
		buf := ca.bbuf
		for i := range keys {
			found[i] = ca.bfound[i]
			if !found[i] {
				vals[i] = nil
				continue
			}
			v := buf[ca.boffs[i]:ca.boffs[i+1]:ca.boffs[i+1]]
			if len(v) == 0 {
				v = []byte{} // present but empty: distinguishable from missing
			}
			vals[i] = v
		}
		putCall(ca)
		return nil
	}
	return lastErr
}

// MultiPut writes a set of key/value pairs through a single coordinator RPC
// per wire.MaxBatchKeys chunk. oks[i] reports whether at least one replica
// applied key i (the same CL=ONE ack contract as Put). The error is non-nil
// for transport failures and — mirroring Put's ErrWriteFailed — when no key
// was acknowledged at all; a partial failure returns oks with a nil error so
// the caller can retry just the failed keys. oks is returned even alongside
// a transport error: chunks that went out before the failure keep their
// acks (those writes were applied), and the failed chunk's keys stay false.
func (c *Client) MultiPut(keys []string, vals [][]byte) (oks []bool, err error) {
	return c.MultiPutAt(keys, vals, One)
}

// MultiPutAt is MultiPut at an explicit consistency level: key i acks only
// when the level's W replicas applied it. A coordinator that answered but
// refused or missed the level returns its verdict immediately (errors.Is:
// ErrQuorumUnavailable / ErrTimeout, both also ErrWriteFailed) alongside the
// per-key acks gathered so far — at QUORUM the acked keys are durable at W
// replicas even when the batch as a whole fails.
func (c *Client) MultiPutAt(keys []string, vals [][]byte, lvl Level) (oks []bool, err error) {
	if len(keys) != len(vals) {
		return nil, errors.New("kvstore: MultiPut keys/values length mismatch")
	}
	if len(keys) == 0 {
		return nil, nil
	}
	oks = make([]bool, len(keys))
	for start := 0; start < len(keys); start += wire.MaxBatchKeys {
		end := min(start+wire.MaxBatchKeys, len(keys))
		if err := c.multiPutChunk(lvl, keys[start:end], vals[start:end], oks[start:end]); err != nil {
			return oks, err
		}
	}
	for _, ok := range oks {
		if ok {
			return oks, nil
		}
	}
	return oks, ErrWriteFailed
}

func (c *Client) multiPutChunk(lvl Level, keys []string, vals [][]byte, oks []bool) error {
	var lastErr error
	for attempt := 0; attempt < len(c.addrs); attempt++ {
		p, err := c.conn(c.pick(keys[0]))
		if err != nil {
			lastErr = err
			continue
		}
		res, status, _, err := p.batchWrite(wire.MsgBatchWrite, uint8(lvl), 0, false, keys, vals, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if len(res) != len(keys) {
			lastErr = errMismatchedResp
			continue
		}
		copy(oks, res)
		return writeStatusErr(status)
	}
	return lastErr
}

// Close drops all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.conns {
		if p != nil {
			p.close()
		}
	}
}
