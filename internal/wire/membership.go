package wire

// This file holds the membership frames: topology announcements
// (MsgRingUpdate/MsgRingAck), the join handshake (MsgJoinReq), and the
// request that moves a key range (MsgStreamReq, answered by a status-only
// MsgStreamChunk). The range itself travels as MsgStreamPush pages, the
// batch-write layout, so every key-range move is one protocol: push.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Ring-update phases: a stable topology, or one of the two dual-route
// transition windows (a join whose subject is still catching up, a leave
// whose subject is still streaming its arcs away).
const (
	PhaseStable uint8 = iota
	PhaseJoin
	PhaseLeave
)

// MaxRingNodes bounds the member count of one topology announcement.
const MaxRingNodes = 4096

// Stream-reply status codes.
const (
	// StreamOK reports an arc pushed in full, every page acked.
	StreamOK uint8 = iota
	// StreamWrongEpoch rejects a request whose epoch does not match the
	// server's; the reply carries the server's epoch, and the requester must
	// retry against the newer topology.
	StreamWrongEpoch
	// StreamPushFailed reports a push cut short: a page could not be sent or
	// was not acked in full.
	StreamPushFailed
)

// RingNode is one member of an announced topology.
type RingNode struct {
	ID    int32
	Token int64
	Addr  string
}

// RingUpdate is a complete versioned topology: the epoch, replication
// factor, transition phase, the subject of the transition (the joining or
// leaving node id; meaningful only when Phase is not PhaseStable), and every
// member with its token and listen address. The node list always includes
// the subject, so a receiver can derive both sides of a dual-route window
// from one frame.
type RingUpdate struct {
	ID      uint64
	Epoch   uint64
	RF      uint8
	Phase   uint8
	Subject int32
	Nodes   []RingNode
}

// RingAck acknowledges a pushed ring update with the receiver's epoch after
// processing — an epoch above the update's tells the sender it raced a newer
// announcement.
type RingAck struct {
	ID    uint64
	Epoch uint64
}

// JoinReq asks the receiving member to admit the sender (listening on Addr)
// into the cluster. The response is a MsgRingUpdate frame carrying the
// PhaseJoin transition topology, whose Subject is the id assigned to the
// joiner.
type JoinReq struct {
	ID   uint64
	Addr string
}

// StreamReq asks the receiver to push the live keys it holds inside the
// token arc (Start, End] (wrapping when Start ≥ End) to node To, as
// MsgStreamPush pages marked ArcPage. Epoch must match the receiver's current
// topology.
type StreamReq struct {
	ID         uint64
	Epoch      uint64
	Start, End int64
	To         int32
}

// ArcPage is the frame Version of a MsgStreamPush page of a key-range move.
// A stream push's values carry their own versions, so the frame Version is
// free to mark the page; a read repair's write-back leaves it zero. A node
// waiting for a push counts the marked pages landing as the push's progress.
const ArcPage uint64 = 1

// StreamChunk answers a StreamReq once the push is over: StreamOK when every
// page was acked, StreamWrongEpoch (nothing pushed) or StreamPushFailed
// otherwise. Epoch is the server's topology epoch.
type StreamChunk struct {
	ID     uint64
	Status uint8
	Epoch  uint64
}

// AppendRingUpdate appends a complete framed topology announcement to dst.
func AppendRingUpdate(dst []byte, m RingUpdate) ([]byte, error) {
	if len(m.Nodes) < 1 || len(m.Nodes) > MaxRingNodes {
		return dst, fmt.Errorf("wire: ring of %d nodes outside [1, %d]", len(m.Nodes), MaxRingNodes)
	}
	if m.Phase > PhaseLeave {
		return dst, fmt.Errorf("wire: unknown ring phase %d", m.Phase)
	}
	if m.RF < 1 || int(m.RF) > len(m.Nodes) {
		return dst, fmt.Errorf("wire: ring RF %d outside [1, %d]", m.RF, len(m.Nodes))
	}
	dst, start := beginFrame(dst, MsgRingUpdate)
	dst = appendU64(dst, m.ID)
	dst = appendU64(dst, m.Epoch)
	dst = append(dst, m.RF, m.Phase)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Subject))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Nodes)))
	var err error
	for _, n := range m.Nodes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n.ID))
		dst = appendI64(dst, n.Token)
		if dst, err = appendStr(dst, n.Addr); err != nil {
			return dst[:start], err
		}
	}
	return endFrame(dst, start)
}

// ParseRingUpdate decodes a MsgRingUpdate payload. Node addresses alias b
// (see the package contract); retainers must clone. Structural validation —
// a positive RF, a known phase, distinct ids and tokens — happens here so a
// decoded update is always a constructible topology.
func ParseRingUpdate(b []byte) (RingUpdate, error) {
	d := decoder{b: b}
	m := RingUpdate{ID: d.u64(), Epoch: d.u64(), RF: d.u8(), Phase: d.u8()}
	m.Subject = int32(d.u32())
	n := int(d.u16())
	if d.err != nil {
		return m, d.err
	}
	if n < 1 || n > MaxRingNodes {
		return m, errors.New("wire: bad ring node count")
	}
	if m.RF < 1 || int(m.RF) > n {
		return m, errors.New("wire: ring RF outside [1, nodes]")
	}
	if m.Phase > PhaseLeave {
		return m, errors.New("wire: unknown ring phase")
	}
	m.Nodes = make([]RingNode, 0, n)
	seenID := make(map[int32]bool, n)
	seenTok := make(map[int64]bool, n)
	for i := 0; i < n && d.err == nil; i++ {
		nd := RingNode{ID: int32(d.u32()), Token: d.i64()}
		nd.Addr = d.str()
		if d.err != nil {
			break
		}
		if seenID[nd.ID] || seenTok[nd.Token] {
			return m, errors.New("wire: duplicate ring node")
		}
		seenID[nd.ID] = true
		seenTok[nd.Token] = true
		m.Nodes = append(m.Nodes, nd)
	}
	return m, d.err
}

// AppendRingAck appends a complete framed ring-update acknowledgement.
func AppendRingAck(dst []byte, m RingAck) ([]byte, error) {
	dst, start := beginFrame(dst, MsgRingAck)
	return endFrame(appendU64(appendU64(dst, m.ID), m.Epoch), start)
}

// ParseRingAck decodes a MsgRingAck payload.
func ParseRingAck(b []byte) (RingAck, error) {
	d := decoder{b: b}
	m := RingAck{ID: d.u64(), Epoch: d.u64()}
	return m, d.err
}

// AppendJoinReq appends a complete framed join request.
func AppendJoinReq(dst []byte, m JoinReq) ([]byte, error) {
	dst, start := beginFrame(dst, MsgJoinReq)
	dst, err := appendStr(appendU64(dst, m.ID), m.Addr)
	if err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start)
}

// ParseJoinReq decodes a MsgJoinReq payload. Addr aliases b.
func ParseJoinReq(b []byte) (JoinReq, error) {
	d := decoder{b: b}
	m := JoinReq{ID: d.u64(), Addr: d.str()}
	return m, d.err
}

// AppendStreamReq appends a complete framed push request.
func AppendStreamReq(dst []byte, m StreamReq) ([]byte, error) {
	if m.To < 0 {
		return dst, fmt.Errorf("wire: negative stream target %d", m.To)
	}
	dst, start := beginFrame(dst, MsgStreamReq)
	dst = appendU64(dst, m.ID)
	dst = appendU64(dst, m.Epoch)
	dst = appendI64(dst, m.Start)
	dst = appendI64(dst, m.End)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
	return endFrame(dst, start)
}

// ParseStreamReq decodes a MsgStreamReq payload.
func ParseStreamReq(b []byte) (StreamReq, error) {
	d := decoder{b: b}
	m := StreamReq{ID: d.u64(), Epoch: d.u64(), Start: d.i64(), End: d.i64(), To: int32(d.u32())}
	if d.err == nil && m.To < 0 {
		return m, errors.New("wire: negative stream target")
	}
	return m, d.err
}

// AppendStreamChunk appends a complete framed push reply.
func AppendStreamChunk(dst []byte, m StreamChunk) ([]byte, error) {
	if m.Status > StreamPushFailed {
		return dst, fmt.Errorf("wire: unknown stream status %d", m.Status)
	}
	dst, start := beginFrame(dst, MsgStreamChunk)
	dst = appendU64(dst, m.ID)
	dst = append(dst, m.Status)
	dst = appendU64(dst, m.Epoch)
	return endFrame(dst, start)
}

// ParseStreamChunk decodes a MsgStreamChunk payload.
func ParseStreamChunk(b []byte) (StreamChunk, error) {
	d := decoder{b: b}
	m := StreamChunk{ID: d.u64(), Status: d.u8(), Epoch: d.u64()}
	if d.err == nil && m.Status > StreamPushFailed {
		return m, errors.New("wire: unknown stream status")
	}
	return m, d.err
}

// u16/u32 decoder helpers for the membership frames.
func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
