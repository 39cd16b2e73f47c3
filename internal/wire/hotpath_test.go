package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestParseAliasesPayload pins the zero-copy ownership contract: parsed
// Value slices and Key strings alias the payload they were decoded from, so
// mutating the payload mutates them — anyone retaining them past the frame
// must copy.
func TestParseAliasesPayload(t *testing.T) {
	frame, err := AppendReadResp(nil, ReadResp{ID: 1, Found: true, Version: 9, Value: []byte("aliased")})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[5:]
	out, err := ParseReadResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != 9 {
		t.Fatalf("version = %d", out.Version)
	}
	// Value starts after id (8) + found (1) + status (1) + length (4) +
	// version prefix (8).
	if len(out.Value) == 0 || &out.Value[0] != &payload[22] {
		t.Fatal("ParseReadResp value does not alias the payload")
	}
	payload[22] = 'X'
	if string(out.Value) != "Xliased" {
		t.Fatalf("value = %q after payload mutation, want it to alias", out.Value)
	}
	// The aliased slice's capacity is clamped: appending to it must not
	// scribble over the feedback fields that follow in the frame.
	if cap(out.Value) != len(out.Value) {
		t.Fatalf("aliased value cap %d > len %d", cap(out.Value), len(out.Value))
	}

	wframe, err := AppendWriteReq(nil, MsgWrite, WriteReq{ID: 2, Key: "thekey", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	wp := wframe[5:]
	req, err := ParseWriteReq(wp)
	if err != nil {
		t.Fatal(err)
	}
	if req.Key != "thekey" {
		t.Fatalf("key = %q", req.Key)
	}
	wp[20] = 'T' // first key byte (8 id + 1 cl + 8 version + 1 flags + 2 len)
	if req.Key != "Thekey" {
		t.Fatalf("key = %q after payload mutation, want it to alias", req.Key)
	}
	clone := strings.Clone(req.Key)
	wp[20] = 'Z'
	if clone != "Thekey" {
		t.Fatalf("strings.Clone did not detach: %q", clone)
	}
}

// TestReaderShrinksRetainedBuffer: one oversized frame must not pin its
// buffer for the connection's lifetime.
func TestReaderShrinksRetainedBuffer(t *testing.T) {
	big := make([]byte, 1<<20)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteReadResp(ReadResp{ID: 1, Found: true, Value: big}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRead(MsgRead, ReadReq{ID: 2, Key: "small"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	_, payload, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cap(payload) < len(big) {
		t.Fatalf("big frame payload cap %d < %d", cap(payload), len(big))
	}
	_, payload, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cap(payload) > MaxRetainedBuffer {
		t.Fatalf("retained buffer cap %d exceeds MaxRetainedBuffer %d", cap(payload), MaxRetainedBuffer)
	}
	m, err := ParseReadReq(payload)
	if err != nil || m.Key != "small" {
		t.Fatalf("after shrink: %+v err=%v", m, err)
	}
}

// TestStreamedReadResp exercises the streaming server encode: raw
// version-prefixed value bytes are appended straight into the frame between
// BeginReadResp and FinishReadResp, and the feedback is supplied after the
// value exists.
func TestStreamedReadResp(t *testing.T) {
	frame, mark := BeginReadResp(nil, 77)
	frame = appendU64(frame, 31) // version prefix, as the lsm stores it
	frame = append(frame, "streamed-value"...)
	frame, err := FinishReadResp(frame, mark, true, StatusOK, Feedback{QueueSize: 2, ServiceNs: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(frame))
	typ, payload, err := r.Next()
	if err != nil || typ != MsgReadResp {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	out, err := ParseReadResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || string(out.Value) != "streamed-value" || out.Version != 31 ||
		out.ID != 77 || out.FB.QueueSize != 2 || out.FB.ServiceNs != 42 {
		t.Fatalf("out = %+v", out)
	}

	// Not-found: nothing appended between begin and finish.
	frame, mark = BeginReadResp(frame[:0], 78)
	frame, err = FinishReadResp(frame, mark, false, StatusOK, Feedback{})
	if err != nil {
		t.Fatal(err)
	}
	out, err = ParseReadResp(frame[5:])
	if err != nil || out.Found || len(out.Value) != 0 || out.ID != 78 {
		t.Fatalf("not-found out = %+v err=%v", out, err)
	}

	// A caller that truncated the buffer must be rejected, not encoded.
	frame, mark = BeginReadResp(nil, 1)
	if _, err := FinishReadResp(frame[:mark.lenAt], mark, true, StatusOK, Feedback{}); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	// Oversized values are rejected (the wire bound covers the version
	// prefix plus the payload limit).
	frame, mark = BeginReadResp(nil, 1)
	frame = append(frame, make([]byte, VersionPrefix+MaxValueLen+1)...)
	if _, err := FinishReadResp(frame, mark, true, StatusOK, Feedback{}); err == nil {
		t.Fatal("oversized value accepted")
	}
}

// TestAppendEncodersMatchWriter: the pure append encoders and the Writer
// methods must produce identical bytes.
func TestAppendEncodersMatchWriter(t *testing.T) {
	rr := ReadResp{ID: 5, Found: true, Value: []byte("v"), FB: Feedback{QueueSize: 1, ServiceNs: 2}}
	wr := WriteReq{ID: 6, Key: "k", Value: []byte("w")}
	wa := WriteResp{ID: 7, OK: true, FB: Feedback{QueueSize: 3, ServiceNs: 4}}
	rq := ReadReq{ID: 8, Key: "q"}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, step := range []func() error{
		func() error { return w.WriteReadResp(rr) },
		func() error { return w.WriteWrite(MsgWrite, wr) },
		func() error { return w.WriteWriteResp(wa) },
		func() error { return w.WriteRead(MsgRead, rq) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var app []byte
	var err error
	if app, err = AppendReadResp(app, rr); err != nil {
		t.Fatal(err)
	}
	if app, err = AppendWriteReq(app, MsgWrite, wr); err != nil {
		t.Fatal(err)
	}
	if app, err = AppendWriteResp(app, wa); err != nil {
		t.Fatal(err)
	}
	if app, err = AppendReadReq(app, MsgRead, rq); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), app) {
		t.Fatalf("writer bytes != append bytes\n  %x\n  %x", buf.Bytes(), app)
	}
}

// TestWriteRawPassesFramesThrough: pre-encoded frames written with WriteRaw
// decode identically.
func TestWriteRawPassesFramesThrough(t *testing.T) {
	frame, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 3, Key: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRaw(frame); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	typ, payload, err := r.Next()
	if err != nil || typ != MsgRead {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	m, err := ParseReadReq(payload)
	if err != nil || m.ID != 3 || m.Key != "raw" {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

// TestEncodeDecodeRoundtripZeroAllocs is the wire half of the PR's
// allocation budget: a full encode → frame → decode round trip of both
// response types and both request types is allocation-free in steady state
// for values under the retained-buffer cap.
func TestEncodeDecodeRoundtripZeroAllocs(t *testing.T) {
	val := bytes.Repeat([]byte{0xCD}, 4096)
	var frame []byte
	src := bytes.NewReader(nil)
	r := NewReader(src)
	rr := ReadResp{ID: 9, Found: true, Value: val, FB: Feedback{QueueSize: 1, ServiceNs: 2}}
	roundtrip := func() {
		var err error
		frame, err = AppendReadResp(frame[:0], rr)
		if err != nil {
			t.Fatal(err)
		}
		if frame, err = AppendWriteResp(frame, WriteResp{ID: 10}); err != nil {
			t.Fatal(err)
		}
		if frame, err = AppendReadReq(frame, MsgRead, ReadReq{ID: 11, Key: "key"}); err != nil {
			t.Fatal(err)
		}
		if frame, err = AppendWriteReq(frame, MsgWrite, WriteReq{ID: 12, Key: "key", Value: val}); err != nil {
			t.Fatal(err)
		}
		src.Reset(frame)
		r.Reset(src)
		for i := 0; i < 4; i++ {
			typ, payload, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch typ {
			case MsgReadResp:
				m, err := ParseReadResp(payload)
				if err != nil || !m.Found || len(m.Value) != len(val) {
					t.Fatalf("readresp %+v err=%v", m.ID, err)
				}
			case MsgWriteResp:
				if _, err := ParseWriteResp(payload); err != nil {
					t.Fatal(err)
				}
			case MsgRead:
				m, err := ParseReadReq(payload)
				if err != nil || m.Key != "key" {
					t.Fatal(err)
				}
			case MsgWrite:
				m, err := ParseWriteReq(payload)
				if err != nil || m.Key != "key" || len(m.Value) != len(val) {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		roundtrip() // warm buffer growth out of the measurement
	}
	if n := testing.AllocsPerRun(200, roundtrip); n > 0 {
		t.Fatalf("encode/decode round trip allocates %.1f/op, want 0", n)
	}
}

// TestKeyLengthBoundary: the longest legal key survives a roundtrip, and a
// key that would wrap the uint16 length prefix (1<<16) is rejected rather
// than encoded as an empty key.
func TestKeyLengthBoundary(t *testing.T) {
	longest := strings.Repeat("k", MaxKeyLen)
	frame, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 1, Key: longest})
	if err != nil {
		t.Fatalf("longest legal key rejected: %v", err)
	}
	m, err := ParseReadReq(frame[5:])
	if err != nil || len(m.Key) != MaxKeyLen {
		t.Fatalf("roundtrip: len=%d err=%v", len(m.Key), err)
	}
	if _, err := AppendReadReq(nil, MsgRead, ReadReq{Key: longest + "k"}); err == nil {
		t.Fatal("1<<16-byte key accepted; uint16 prefix would wrap to 0")
	}
	if _, err := AppendWriteReq(nil, MsgWrite, WriteReq{Key: longest + "k"}); err == nil {
		t.Fatal("1<<16-byte key accepted on the write path")
	}
}

// TestReaderResetReuses: Reset must retain buffers and parse from the new
// source.
func TestReaderResetReuses(t *testing.T) {
	frame, err := AppendReadReq(nil, MsgRead, ReadReq{ID: 1, Key: "a"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(frame))
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	r.Reset(bytes.NewReader(frame))
	typ, payload, err := r.Next()
	if err != nil || typ != MsgRead {
		t.Fatalf("after Reset: typ=%d err=%v", typ, err)
	}
	if m, err := ParseReadReq(payload); err != nil || m.Key != "a" {
		t.Fatalf("after Reset: %+v err=%v", m, err)
	}
}
