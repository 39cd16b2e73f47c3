package wire

import (
	"bytes"
	"testing"
)

// TestWriteReqDelFlagRoundtrip pins the flags byte: Del survives
// encode→decode in both states, and the byte is mandatory (old frames
// without it no longer parse — the format changed with the flag).
func TestWriteReqDelFlagRoundtrip(t *testing.T) {
	for _, del := range []bool{false, true} {
		in := WriteReq{ID: 7, CL: 1, Version: 42, Key: "k", Value: []byte("v"), Del: del}
		if del {
			in.Value = nil
		}
		frame, err := AppendWriteReq(nil, MsgWrite, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseWriteReq(frame[5:])
		if err != nil {
			t.Fatalf("del=%v: %v", del, err)
		}
		if out.Del != del || out.ID != 7 || out.CL != 1 || out.Version != 42 || out.Key != "k" {
			t.Fatalf("del=%v: round-trip = %+v", del, out)
		}
		if !del && !bytes.Equal(out.Value, []byte("v")) {
			t.Fatalf("value = %q", out.Value)
		}
	}
}

// TestWriteReqUnknownFlagsRejected pins forward-compatibility: a frame with
// flag bits this version does not know must fail parse, not silently drop
// semantics (a Del bit misread as a put would resurrect the key).
func TestWriteReqUnknownFlagsRejected(t *testing.T) {
	frame, err := AppendWriteReq(nil, MsgWrite, WriteReq{ID: 1, Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[5:]
	// flags byte sits after id (8) + cl (1) + version (8).
	payload[17] |= 0x80
	if _, err := ParseWriteReq(payload); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
}

// TestBatchWriteReqDelFlagRoundtrip pins the batch write's flags byte, which
// carries the same Del bit: it survives encode→decode in both states, sits
// between the version and the key count, and an unknown bit fails parse.
func TestBatchWriteReqDelFlagRoundtrip(t *testing.T) {
	for _, del := range []bool{false, true} {
		in := BatchWriteReq{ID: 8, Version: 43, Del: del, Keys: []string{"a", "b"},
			Values: [][]byte{[]byte("x"), nil}}
		frame, err := AppendBatchWriteReq(nil, MsgBatchWriteInternal, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ParseBatchWriteReq(frame[5:], nil, nil)
		if err != nil {
			t.Fatalf("del=%v: %v", del, err)
		}
		if out.Del != del || out.ID != 8 || out.Version != 43 || len(out.Keys) != 2 || out.Keys[1] != "b" {
			t.Fatalf("del=%v: round-trip = %+v", del, out)
		}
		payload := frame[5:]
		if got := payload[17] == writeFlagDel; got != del { // after id (8) + cl (1) + version (8)
			t.Fatalf("del=%v: flags byte = %#x", del, payload[17])
		}
		payload[17] |= 0x80
		if _, err := ParseBatchWriteReq(payload, nil, nil); err == nil {
			t.Fatalf("del=%v: unknown batch flag bit accepted", del)
		}
	}
}

// TestReadRespEmptyValueFound pins miss-vs-empty at the wire layer: a found
// response with a zero-length value is distinct from a not-found response.
func TestReadRespEmptyValueFound(t *testing.T) {
	frame, err := AppendReadResp(nil, ReadResp{ID: 3, Found: true, Version: 5, Value: nil})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseReadResp(frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Value) != 0 {
		t.Fatalf("found-empty = %+v", out)
	}
	miss, err := AppendReadResp(nil, ReadResp{ID: 4, Found: false})
	if err != nil {
		t.Fatal(err)
	}
	mout, err := ParseReadResp(miss[5:])
	if err != nil {
		t.Fatal(err)
	}
	if mout.Found {
		t.Fatal("miss decoded as found")
	}
}
