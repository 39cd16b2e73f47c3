package wire

import "testing"

// TestReadReqDigestFlagRoundtrip pins the digest bit of the CL byte: it
// survives encode→decode on point and batch read requests in both states,
// without disturbing the level beside it.
func TestReadReqDigestFlagRoundtrip(t *testing.T) {
	for _, digest := range []bool{false, true} {
		for _, cl := range []uint8{LevelOne, LevelQuorum, LevelAll} {
			frame, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 9, CL: cl, Digest: digest, Key: "k"})
			if err != nil {
				t.Fatal(err)
			}
			out, err := ParseReadReq(frame[5:])
			if err != nil {
				t.Fatalf("digest=%v cl=%d: %v", digest, cl, err)
			}
			if out.Digest != digest || out.CL != cl || out.ID != 9 || out.Key != "k" {
				t.Fatalf("digest=%v cl=%d: round-trip = %+v", digest, cl, out)
			}
			bframe, err := AppendBatchReadReq(nil, MsgBatchReadInternal,
				BatchReadReq{ID: 10, CL: cl, Digest: digest, Keys: []string{"a", "b"}})
			if err != nil {
				t.Fatal(err)
			}
			bout, err := ParseBatchReadReq(bframe[5:], nil)
			if err != nil {
				t.Fatalf("batch digest=%v cl=%d: %v", digest, cl, err)
			}
			if bout.Digest != digest || bout.CL != cl || len(bout.Keys) != 2 || bout.Keys[1] != "b" {
				t.Fatalf("batch digest=%v cl=%d: round-trip = %+v", digest, cl, bout)
			}
		}
	}
}

// TestReadReqUnknownFlagsRejected: a read whose CL byte carries a bit this
// version does not know fails to parse — a replica must never answer a
// request whose meaning it only partly understood — and an encoder refuses
// a level that would spill into the flag bits.
func TestReadReqUnknownFlagsRejected(t *testing.T) {
	frame, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 1, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	bframe, err := AppendBatchReadReq(nil, MsgBatchReadInternal, BatchReadReq{ID: 2, Keys: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	for bit := 2; bit < 7; bit++ {
		p := append([]byte(nil), frame[5:]...)
		p[8] |= 1 << bit // the CL byte follows the 8-byte id
		if _, err := ParseReadReq(p); err == nil {
			t.Fatalf("read with unknown CL bit %d accepted", bit)
		}
		bp := append([]byte(nil), bframe[5:]...)
		bp[8] |= 1 << bit
		if _, err := ParseBatchReadReq(bp, nil); err == nil {
			t.Fatalf("batch read with unknown CL bit %d accepted", bit)
		}
	}
	if _, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 3, CL: 1 << 2, Key: "k"}); err == nil {
		t.Fatal("out-of-range level encoded")
	}
	if _, err := AppendBatchReadReq(nil, MsgBatchRead, BatchReadReq{ID: 4, CL: readFlagDigest, Keys: []string{"k"}}); err == nil {
		t.Fatal("a flag bit smuggled through the level encoded")
	}
}

// TestDigestReadRespShape: a replica answers a digest with the version prefix
// alone, which decodes as found with the version and an empty payload — on
// the point and the batch response alike.
func TestDigestReadRespShape(t *testing.T) {
	b, mark := BeginReadResp(nil, 5)
	b = appendU64(b, 77)
	b, err := FinishReadResp(b, mark, true, StatusOK, Feedback{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseReadResp(b[5:])
	if err != nil || !out.Found || out.Version != 77 || len(out.Value) != 0 {
		t.Fatalf("digest point resp = %+v, %v", out, err)
	}
	bb, err := AppendBatchReadResp(nil, BatchReadResp{ID: 6, Items: []BatchItem{
		{Found: true, Version: 78}, {Found: false}}})
	if err != nil {
		t.Fatal(err)
	}
	bout, err := ParseBatchReadResp(bb[5:], nil)
	if err != nil || !bout.Items[0].Found || bout.Items[0].Version != 78 ||
		len(bout.Items[0].Value) != 0 || bout.Items[1].Found {
		t.Fatalf("digest batch resp = %+v, %v", bout, err)
	}
}
