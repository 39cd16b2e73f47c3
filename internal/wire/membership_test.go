package wire

import (
	"bytes"
	"strings"
	"testing"
)

func ringUpdateFixture() RingUpdate {
	return RingUpdate{
		ID: 7, Epoch: 3, RF: 2, Phase: PhaseJoin, Subject: 5,
		Nodes: []RingNode{
			{ID: 0, Token: -100, Addr: "127.0.0.1:7001"},
			{ID: 1, Token: 0, Addr: "127.0.0.1:7002"},
			{ID: 5, Token: 50, Addr: "127.0.0.1:7003"},
		},
	}
}

func TestRingUpdateRoundTrip(t *testing.T) {
	in := ringUpdateFixture()
	enc, err := AppendRingUpdate(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(enc))
	typ, payload, err := r.Next()
	if err != nil || typ != MsgRingUpdate {
		t.Fatalf("frame: typ=%d err=%v", typ, err)
	}
	out, err := ParseRingUpdate(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Epoch != in.Epoch || out.RF != in.RF ||
		out.Phase != in.Phase || out.Subject != in.Subject || len(out.Nodes) != len(in.Nodes) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Nodes {
		if out.Nodes[i] != in.Nodes[i] {
			t.Fatalf("node %d: %+v vs %+v", i, out.Nodes[i], in.Nodes[i])
		}
	}
}

func TestRingUpdateRejects(t *testing.T) {
	base := ringUpdateFixture()
	for name, mut := range map[string]func(*RingUpdate){
		"no nodes":        func(m *RingUpdate) { m.Nodes = nil },
		"bad phase":       func(m *RingUpdate) { m.Phase = 9 },
		"duplicate id":    func(m *RingUpdate) { m.Nodes[1].ID = m.Nodes[0].ID },
		"duplicate token": func(m *RingUpdate) { m.Nodes[1].Token = m.Nodes[0].Token },
		"rf zero":         func(m *RingUpdate) { m.RF = 0 },
		"rf above nodes":  func(m *RingUpdate) { m.RF = 4 },
	} {
		m := base
		m.Nodes = append([]RingNode(nil), base.Nodes...)
		mut(&m)
		enc, err := AppendRingUpdate(nil, m)
		if err != nil {
			continue // rejected at encode: equally fine
		}
		if _, err := ParseRingUpdate(enc[5:]); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestRingUpdateTruncatedEpoch(t *testing.T) {
	enc, err := AppendRingUpdate(nil, ringUpdateFixture())
	if err != nil {
		t.Fatal(err)
	}
	// Cut the payload inside the epoch field (after the 5-byte header and
	// 8-byte ID).
	if _, err := ParseRingUpdate(enc[5 : 5+11]); err == nil {
		t.Fatal("truncated epoch decoded without error")
	}
}

func TestRingAckJoinReqRoundTrip(t *testing.T) {
	enc, err := AppendRingAck(nil, RingAck{ID: 9, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := ParseRingAck(enc[5:])
	if err != nil || ack.ID != 9 || ack.Epoch != 4 {
		t.Fatalf("ack round trip: %+v err=%v", ack, err)
	}
	enc, err = AppendJoinReq(nil, JoinReq{ID: 11, Addr: "10.0.0.1:9999"})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := ParseJoinReq(enc[5:])
	if err != nil || jr.ID != 11 || jr.Addr != "10.0.0.1:9999" {
		t.Fatalf("join round trip: %+v err=%v", jr, err)
	}
}

func TestStreamReqRoundTrip(t *testing.T) {
	in := StreamReq{ID: 3, Epoch: 8, Start: -500, End: 12345, To: 7}
	enc, err := AppendStreamReq(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseStreamReq(enc[5:])
	if err != nil || out != in {
		t.Fatalf("round trip: %+v vs %+v err=%v", out, in, err)
	}
	// A wrapping arc (Start ≥ End) is legal on the wire; range semantics are
	// the ring's business.
	in = StreamReq{ID: 4, Epoch: 8, Start: 100, End: -100}
	enc, err = AppendStreamReq(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = ParseStreamReq(enc[5:]); err != nil || out != in {
		t.Fatalf("wrapping arc round trip: %+v err=%v", out, err)
	}
}

func TestStreamChunkRoundTrip(t *testing.T) {
	for _, st := range []uint8{StreamOK, StreamWrongEpoch, StreamPushFailed} {
		in := StreamChunk{ID: 21, Status: st, Epoch: 5}
		enc, err := AppendStreamChunk(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != 5+17 {
			t.Fatalf("status %d: reply is %d bytes, want a status-only 22", st, len(enc))
		}
		out, err := ParseStreamChunk(enc[5:])
		if err != nil || out != in {
			t.Fatalf("status %d round trip: %+v vs %+v err=%v", st, out, in, err)
		}
	}
}

func TestStreamChunkWrongEpochRejection(t *testing.T) {
	enc, err := AppendStreamChunk(nil, StreamChunk{ID: 2, Status: StreamWrongEpoch, Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseStreamChunk(enc[5:])
	if err != nil || out.Status != StreamWrongEpoch || out.Epoch != 9 || out.ID != 2 {
		t.Fatalf("rejection round trip: %+v err=%v", out, err)
	}
}

func TestStreamChunkEncoderErrors(t *testing.T) {
	if _, err := AppendStreamChunk(nil, StreamChunk{Status: StreamPushFailed + 1}); err == nil {
		t.Fatal("unknown stream status encoded")
	}
	enc, err := AppendStreamChunk(nil, StreamChunk{ID: 1, Status: StreamPushFailed})
	if err != nil {
		t.Fatal(err)
	}
	enc[5+8]++ // the status byte, past every known code
	if _, err := ParseStreamChunk(enc[5:]); err == nil {
		t.Fatal("unknown stream status decoded")
	}
	if _, err := AppendStreamReq(nil, StreamReq{To: -1}); err == nil {
		t.Fatal("negative push target encoded")
	}
	enc, err = AppendStreamReq(nil, StreamReq{To: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] = 0x80 // the sign bit of the little-endian target
	if _, err := ParseStreamReq(enc[5:]); err == nil {
		t.Fatal("negative push target decoded")
	}
	if _, err := AppendJoinReq(nil, JoinReq{Addr: strings.Repeat("a", MaxKeyLen+1)}); err == nil {
		t.Fatal("oversized join addr accepted")
	}
}
