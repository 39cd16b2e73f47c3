package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode throws adversarial bytes at every payload parser and at the
// frame reader. The invariant under fuzzing is purely defensive: no decoder
// may panic or read out of bounds, whatever the bytes; errors are fine.
func FuzzDecode(f *testing.F) {
	// Seed with one well-formed payload per message type (frame header
	// stripped) plus classic edge cases.
	seed := func(enc func([]byte) ([]byte, error)) []byte {
		b, err := enc(nil)
		if err != nil {
			f.Fatal(err)
		}
		return b[5:]
	}
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendReadReq(dst, MsgRead, ReadReq{ID: 1, Key: "user0001"})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendReadReq(dst, MsgRead, ReadReq{ID: 14, CL: LevelQuorum, Digest: true, Key: "user0001"})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendBatchReadReq(dst, MsgBatchReadInternal, BatchReadReq{ID: 15, Digest: true, Keys: []string{"a", "b"}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendReadResp(dst, ReadResp{ID: 2, Found: true, Value: []byte("value"),
			FB: Feedback{QueueSize: 1.5, ServiceNs: 1000}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendWriteReq(dst, MsgWrite, WriteReq{ID: 3, Key: "k", Value: []byte("v")})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendWriteResp(dst, WriteResp{ID: 4, OK: true})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendBatchReadReq(dst, MsgBatchRead, BatchReadReq{ID: 5, Keys: []string{"a", "bb", ""}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendBatchReadResp(dst, BatchReadResp{ID: 6, Items: []BatchItem{
			{Found: true, Value: []byte("x")}, {Found: false}}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendBatchWriteReq(dst, MsgBatchWrite, BatchWriteReq{ID: 7,
			Keys: []string{"k0", "k1"}, Values: [][]byte{[]byte("v0"), nil}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendBatchWriteResp(dst, BatchWriteResp{ID: 8, OK: []bool{true, false}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendRingUpdate(dst, RingUpdate{ID: 9, Epoch: 2, RF: 2, Phase: PhaseJoin,
			Subject: 2, Nodes: []RingNode{
				{ID: 0, Token: -10, Addr: "127.0.0.1:1"},
				{ID: 1, Token: 0, Addr: "127.0.0.1:2"},
				{ID: 2, Token: 10, Addr: "127.0.0.1:3"},
			}})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendRingAck(dst, RingAck{ID: 10, Epoch: 3})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendJoinReq(dst, JoinReq{ID: 11, Addr: "127.0.0.1:9"})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		// A wrapping (Start ≥ End) arc: legal, must round-trip.
		return AppendStreamReq(dst, StreamReq{ID: 12, Epoch: 4, Start: 100, End: -100, To: 3})
	}))
	f.Add(seed(func(dst []byte) ([]byte, error) {
		return AppendStreamChunk(dst, StreamChunk{ID: 13, Status: StreamPushFailed, Epoch: 4})
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Count field claiming more items than the payload carries.
	hdr := binary.LittleEndian.AppendUint64(nil, 9)
	f.Add(binary.LittleEndian.AppendUint16(hdr, 4000))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Every parser must survive every input. Reuse scratch across calls
		// like the serving loops do, so the fuzzer also exercises slice reuse.
		if m, err := ParseReadReq(b); err == nil {
			enc, err := AppendReadReq(nil, MsgRead, m)
			if err == nil {
				back, err := ParseReadReq(enc[5:])
				if err != nil || back != m {
					t.Fatalf("read req re-decode mismatch: %+v vs %+v (err=%v)", back, m, err)
				}
			}
		}
		ParseReadResp(b)
		ParseWriteReq(b)
		ParseWriteResp(b)
		keys := make([]string, 0, 4)
		items := make([]BatchItem, 0, 4)
		vals := make([][]byte, 0, 4)
		oks := make([]bool, 0, 4)
		if m, err := ParseBatchReadReq(b, keys); err == nil {
			// A successful decode must re-encode and decode back identically:
			// the round-trip direction of the fuzz contract.
			enc, err := AppendBatchReadReq(nil, MsgBatchRead, m)
			if err != nil {
				t.Fatalf("re-encode of decoded batch read req failed: %v", err)
			}
			back, err := ParseBatchReadReq(enc[5:], nil)
			if err != nil || back.ID != m.ID || back.CL != m.CL || back.Digest != m.Digest || len(back.Keys) != len(m.Keys) {
				t.Fatalf("re-decode mismatch: %+v vs %+v (err=%v)", back, m, err)
			}
			for i := range m.Keys {
				if back.Keys[i] != m.Keys[i] {
					t.Fatalf("key %d changed across round-trip", i)
				}
			}
		}
		if m, err := ParseBatchReadResp(b, items); err == nil {
			enc, err := AppendBatchReadResp(nil, m)
			if err == nil {
				back, err := ParseBatchReadResp(enc[5:], nil)
				if err != nil || len(back.Items) != len(m.Items) {
					t.Fatalf("batch read resp re-decode mismatch (err=%v)", err)
				}
			}
		}
		if m, err := ParseBatchWriteReq(b, keys[:0], vals); err == nil {
			enc, err := AppendBatchWriteReq(nil, MsgBatchWriteInternal, m)
			if err == nil {
				back, err := ParseBatchWriteReq(enc[5:], nil, nil)
				if err != nil || len(back.Keys) != len(m.Keys) || back.Del != m.Del {
					t.Fatalf("batch write req re-decode mismatch (err=%v)", err)
				}
			}
		}
		if m, err := ParseBatchWriteResp(b, oks); err == nil {
			enc, err := AppendBatchWriteResp(nil, m)
			if err != nil {
				t.Fatalf("re-encode of decoded batch write resp failed: %v", err)
			}
			back, err := ParseBatchWriteResp(enc[5:], nil)
			if err != nil || len(back.OK) != len(m.OK) {
				t.Fatalf("batch write resp re-decode mismatch (err=%v)", err)
			}
		}
		if m, err := ParseRingUpdate(b); err == nil {
			enc, err := AppendRingUpdate(nil, m)
			if err != nil {
				t.Fatalf("re-encode of decoded ring update failed: %v", err)
			}
			back, err := ParseRingUpdate(enc[5:])
			if err != nil || back.ID != m.ID || back.Epoch != m.Epoch || back.RF != m.RF ||
				back.Phase != m.Phase || back.Subject != m.Subject || len(back.Nodes) != len(m.Nodes) {
				t.Fatalf("ring update re-decode mismatch: %+v vs %+v (err=%v)", back, m, err)
			}
			for i := range m.Nodes {
				if back.Nodes[i] != m.Nodes[i] {
					t.Fatalf("ring node %d changed across round-trip", i)
				}
			}
		}
		if m, err := ParseRingAck(b); err == nil {
			enc, err := AppendRingAck(nil, m)
			if err != nil {
				t.Fatalf("re-encode of decoded ring ack failed: %v", err)
			}
			if back, err := ParseRingAck(enc[5:]); err != nil || back != m {
				t.Fatalf("ring ack re-decode mismatch (err=%v)", err)
			}
		}
		if m, err := ParseJoinReq(b); err == nil {
			enc, err := AppendJoinReq(nil, m)
			if err == nil {
				if back, err := ParseJoinReq(enc[5:]); err != nil || back != m {
					t.Fatalf("join req re-decode mismatch (err=%v)", err)
				}
			}
		}
		if m, err := ParseStreamReq(b); err == nil {
			enc, err := AppendStreamReq(nil, m)
			if err == nil {
				if back, err := ParseStreamReq(enc[5:]); err != nil || back != m {
					t.Fatalf("stream req re-decode mismatch (err=%v)", err)
				}
			}
		}
		if m, err := ParseStreamChunk(b); err == nil {
			enc, err := AppendStreamChunk(nil, m)
			if err != nil {
				t.Fatalf("re-encode of decoded stream reply failed: %v", err)
			}
			if back, err := ParseStreamChunk(enc[5:]); err != nil || back != m {
				t.Fatalf("stream reply re-decode mismatch (err=%v)", err)
			}
		}
		// The frame reader must also survive raw adversarial bytes.
		r := NewReader(bytes.NewReader(b))
		for {
			if _, _, err := r.Next(); err != nil {
				break
			}
		}
	})
}

// FuzzRoundTrip drives the encode direction with structured inputs: whatever
// batch the fuzzer assembles, encoding must either fail cleanly or produce a
// frame that decodes back bit-exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte("alpha\x00beta\x00gamma"), []byte("v1\x00v2\x00v3"), true)
	f.Add(uint64(0), []byte(""), []byte(""), false)
	f.Add(uint64(1<<63), []byte("\x00\x00"), []byte("x"), true)

	f.Fuzz(func(t *testing.T, id uint64, keyBlob, valBlob []byte, read bool) {
		// The batch write's Del bit is derived from the id, so the committed
		// corpus keeps loading and still reaches both states.
		del := id&1 == 1
		keys := splitBlob(keyBlob)
		if len(keys) == 0 || len(keys) > MaxBatchKeys {
			return
		}
		if read {
			in := BatchReadReq{ID: id, Keys: keys}
			enc, err := AppendBatchReadReq(nil, MsgBatchRead, in)
			if err != nil {
				return // cleanly rejected (e.g. oversized key)
			}
			r := NewReader(bytes.NewReader(enc))
			typ, payload, err := r.Next()
			if err != nil || typ != MsgBatchRead {
				t.Fatalf("frame: typ=%d err=%v", typ, err)
			}
			out, err := ParseBatchReadReq(payload, nil)
			if err != nil || out.ID != id || len(out.Keys) != len(keys) {
				t.Fatalf("decode: %+v err=%v", out, err)
			}
			for i := range keys {
				if out.Keys[i] != keys[i] {
					t.Fatalf("key %d: %q != %q", i, out.Keys[i], keys[i])
				}
			}
			return
		}
		vals := make([][]byte, len(keys))
		vparts := splitBlob(valBlob)
		for i := range vals {
			if i < len(vparts) {
				vals[i] = []byte(vparts[i])
			}
		}
		in := BatchWriteReq{ID: id, Del: del, Keys: keys, Values: vals}
		enc, err := AppendBatchWriteReq(nil, MsgBatchWriteInternal, in)
		if err != nil {
			return
		}
		r := NewReader(bytes.NewReader(enc))
		typ, payload, err := r.Next()
		if err != nil || typ != MsgBatchWriteInternal {
			t.Fatalf("frame: typ=%d err=%v", typ, err)
		}
		out, err := ParseBatchWriteReq(payload, nil, nil)
		if err != nil || out.ID != id || out.Del != del || len(out.Keys) != len(keys) {
			t.Fatalf("decode: %+v err=%v", out, err)
		}
		for i := range keys {
			if out.Keys[i] != keys[i] || !bytes.Equal(out.Values[i], vals[i]) {
				t.Fatalf("pair %d mismatch", i)
			}
		}
	})
}

// FuzzMembershipRoundTrip drives the encode direction of the membership
// frames with structured inputs: whatever topology, push request or reply the fuzzer
// assembles, encoding must either fail cleanly or produce a frame that
// decodes back field-for-field.
func FuzzMembershipRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(2), uint8(1), []byte("a\x00b\x00c"), true)
	f.Add(uint64(0), uint64(0), uint8(1), uint8(0), []byte(""), false)
	f.Add(uint64(9), uint64(1<<40), uint8(3), uint8(2), []byte("x"), true)

	f.Fuzz(func(t *testing.T, id, epoch uint64, rf, phase uint8, blob []byte, _ bool) {
		addrs := splitBlob(blob)
		nodes := make([]RingNode, len(addrs))
		for i, a := range addrs {
			// Distinct ids and tokens by construction; the token spacing is
			// irrelevant to the wire layer.
			nodes[i] = RingNode{ID: int32(i), Token: int64(i) * 1e9, Addr: a}
		}
		ru := RingUpdate{ID: id, Epoch: epoch, RF: rf, Phase: phase, Subject: 0, Nodes: nodes}
		if enc, err := AppendRingUpdate(nil, ru); err == nil {
			back, err := ParseRingUpdate(enc[5:])
			if err != nil || back.Epoch != epoch || len(back.Nodes) != len(nodes) {
				t.Fatalf("ring update decode: %+v err=%v", back, err)
			}
			for i := range nodes {
				if back.Nodes[i] != nodes[i] {
					t.Fatalf("node %d mismatch", i)
				}
			}
		}
		// Any status byte: an unknown one must fail to encode.
		sc := StreamChunk{ID: id, Status: rf, Epoch: epoch}
		if enc, err := AppendStreamChunk(nil, sc); err == nil {
			if back, err := ParseStreamChunk(enc[5:]); err != nil || back != sc {
				t.Fatalf("stream reply decode: %+v err=%v", back, err)
			}
		} else if sc.Status <= StreamPushFailed {
			t.Fatalf("stream reply with status %d refused: %v", sc.Status, err)
		}
		sr := StreamReq{ID: id, Epoch: epoch, Start: int64(id) - 5, End: int64(epoch), To: int32(len(blob)) - 1}
		if enc, err := AppendStreamReq(nil, sr); err == nil {
			if back, err := ParseStreamReq(enc[5:]); err != nil || back != sr {
				t.Fatalf("stream req decode: %+v err=%v", back, err)
			}
		}
	})
}

// splitBlob derives a key list from fuzzer bytes: NUL-separated segments.
func splitBlob(b []byte) []string {
	var out []string
	for len(b) > 0 {
		i := bytes.IndexByte(b, 0)
		if i < 0 {
			out = append(out, string(b))
			break
		}
		out = append(out, string(b[:i]))
		b = b[i+1:]
	}
	return out
}
