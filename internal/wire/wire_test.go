package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, send func(*Writer) error) (uint8, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := send(w); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := NewReader(&buf)
	typ, payload, err := r.Next()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return typ, payload
}

// raw returns a sink that buffers one Append*-encoded frame through w, the
// way production code writes frames: raw(w)(AppendReadReq(nil, MsgRead, m)).
func raw(w *Writer) func(frame []byte, err error) error {
	return func(frame []byte, err error) error {
		if err != nil {
			return err
		}
		return w.WriteRaw(frame)
	}
}

func TestReadReqRoundtrip(t *testing.T) {
	in := ReadReq{ID: 42, Key: "user00042"}
	typ, payload := roundtrip(t, func(w *Writer) error { return raw(w)(AppendReadReq(nil, MsgRead, in)) })
	if typ != MsgRead {
		t.Fatalf("type = %d", typ)
	}
	out, err := ParseReadReq(payload)
	if err != nil || out != in {
		t.Fatalf("out = %+v err=%v", out, err)
	}
}

// TestInternalReadTypePreserved: a one-key read leg — every coordinator→
// replica read is a batch frame, whatever its key count — keeps its type
// byte and its key across the Writer and Reader.
func TestInternalReadTypePreserved(t *testing.T) {
	typ, payload := roundtrip(t, func(w *Writer) error {
		frame, err := AppendBatchReadReq(nil, MsgBatchReadInternal, BatchReadReq{ID: 1, Keys: []string{"k"}})
		if err != nil {
			return err
		}
		return w.WriteRaw(frame)
	})
	if typ != MsgBatchReadInternal {
		t.Fatalf("type = %d, want MsgBatchReadInternal", typ)
	}
	if m, err := ParseBatchReadReq(payload, nil); err != nil || len(m.Keys) != 1 || m.Keys[0] != "k" {
		t.Fatalf("m = %+v err=%v", m, err)
	}
}

func TestReadRespRoundtrip(t *testing.T) {
	in := ReadResp{
		ID:    7,
		Found: true,
		Value: []byte("hello world"),
		FB:    Feedback{QueueSize: 3.5, ServiceNs: 1234567},
	}
	typ, payload := roundtrip(t, func(w *Writer) error { return raw(w)(AppendReadResp(nil, in)) })
	if typ != MsgReadResp {
		t.Fatalf("type = %d", typ)
	}
	out, err := ParseReadResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Found != in.Found || !bytes.Equal(out.Value, in.Value) ||
		out.FB != in.FB {
		t.Fatalf("out = %+v", out)
	}
}

func TestReadRespNotFound(t *testing.T) {
	in := ReadResp{ID: 9, Found: false, FB: Feedback{QueueSize: 0, ServiceNs: 10}}
	_, payload := roundtrip(t, func(w *Writer) error { return raw(w)(AppendReadResp(nil, in)) })
	out, err := ParseReadResp(payload)
	if err != nil || out.Found || len(out.Value) != 0 {
		t.Fatalf("out = %+v err=%v", out, err)
	}
}

func TestWriteReqRoundtrip(t *testing.T) {
	in := WriteReq{ID: 11, Key: "k", Value: bytes.Repeat([]byte{0xAB}, 1024)}
	typ, payload := roundtrip(t, func(w *Writer) error { return raw(w)(AppendWriteReq(nil, MsgWrite, in)) })
	if typ != MsgWrite {
		t.Fatalf("type = %d", typ)
	}
	out, err := ParseWriteReq(payload)
	if err != nil || out.ID != 11 || out.Key != "k" || !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("out = %+v err=%v", out, err)
	}
}

func TestWriteRespRoundtrip(t *testing.T) {
	for _, in := range []WriteResp{
		{ID: 13, OK: true, FB: Feedback{QueueSize: 1, ServiceNs: 999}},
		{ID: 14, OK: false, FB: Feedback{QueueSize: 2, ServiceNs: 5}}, // failure report
	} {
		_, payload := roundtrip(t, func(w *Writer) error { return raw(w)(AppendWriteResp(nil, in)) })
		out, err := ParseWriteResp(payload)
		if err != nil || out != in {
			t.Fatalf("out = %+v err=%v", out, err)
		}
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint64(0); i < 10; i++ {
		if err := raw(w)(AppendReadReq(nil, MsgRead, ReadReq{ID: i, Key: "k"})); err != nil {
			t.Fatal(err)
		}
	}
	if w.Buffered() == 0 {
		t.Fatal("frames flushed eagerly; want coalescing until Flush")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i := uint64(0); i < 10; i++ {
		typ, payload, err := r.Next()
		if err != nil || typ != MsgRead {
			t.Fatalf("frame %d: typ=%d err=%v", i, typ, err)
		}
		m, err := ParseReadReq(payload)
		if err != nil || m.ID != i {
			t.Fatalf("frame %d: id=%d err=%v", i, m.ID, err)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTruncatedFrameDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := raw(w)(AppendReadResp(nil, ReadResp{ID: 1, Found: true, Value: []byte("xyz")})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-payload.
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	if _, _, err := r.Next(); err == nil {
		t.Fatal("truncated frame not detected")
	}
}

func TestCorruptPayloadRejected(t *testing.T) {
	// A ReadResp payload too short for its declared value length.
	if _, err := ParseReadResp([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseReadReq(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := ParseWriteReq([]byte{0}); err == nil {
		t.Fatal("short write req accepted")
	}
}

func TestOversizeKeyRejected(t *testing.T) {
	_, err := AppendReadReq(nil, MsgRead, ReadReq{Key: strings.Repeat("k", MaxKeyLen+1)})
	if err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestOversizeFrameLengthRejected(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgRead)}
	r := NewReader(bytes.NewReader(raw))
	if _, _, err := r.Next(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// Property: any (id, key, value, feedback) read response survives a
// roundtrip bit-exactly.
func TestReadRespRoundtripProperty(t *testing.T) {
	f := func(id uint64, key string, val []byte, q float64, svc int64, found bool) bool {
		if len(key) > MaxKeyLen || len(val) > 4096 {
			return true
		}
		in := ReadResp{ID: id, Found: found, Value: val,
			FB: Feedback{QueueSize: q, ServiceNs: svc}}
		if found {
			in.Version = id | 1
		} else {
			in.Value = nil // absent responses carry no value bytes
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := raw(w)(AppendReadResp(nil, in)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		_, payload, err := r.Next()
		if err != nil {
			return false
		}
		out, err := ParseReadResp(payload)
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via stringized check.
		if out.ID != in.ID || out.Found != in.Found || !bytes.Equal(out.Value, in.Value) {
			return false
		}
		if out.Version != in.Version {
			return false
		}
		if out.FB.ServiceNs != in.FB.ServiceNs {
			return false
		}
		return out.FB.QueueSize == in.FB.QueueSize ||
			(out.FB.QueueSize != out.FB.QueueSize && in.FB.QueueSize != in.FB.QueueSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadRespRoundtrip(b *testing.B) {
	val := make([]byte, 1024)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := NewReader(&buf)
	var frame []byte
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		if frame, err = AppendReadResp(frame[:0], ReadResp{ID: uint64(i), Found: true, Value: val}); err != nil {
			b.Fatal(err)
		}
		if err := w.WriteRaw(frame); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		typ, payload, err := r.Next()
		if err != nil || typ != MsgReadResp {
			b.Fatal(err)
		}
		if _, err := ParseReadResp(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMessageTypeBytesStable pins every message type's byte value: retiring
// the point internal frames reserved their slots (2 and 5) rather than
// renumbering the types after them, so a frame keeps its meaning across
// versions.
func TestMessageTypeBytesStable(t *testing.T) {
	for _, c := range []struct {
		typ, want uint8
	}{
		{MsgRead, 1}, {MsgReadResp, 3}, {MsgWrite, 4}, {MsgWriteResp, 6},
		{MsgBatchRead, 7}, {MsgBatchReadInternal, 8}, {MsgBatchReadResp, 9},
		{MsgBatchWrite, 10}, {MsgBatchWriteInternal, 11}, {MsgBatchWriteResp, 12},
		{MsgRingUpdate, 13}, {MsgRingAck, 14}, {MsgJoinReq, 15},
		{MsgStreamReq, 16}, {MsgStreamChunk, 17}, {MsgStreamPush, 18},
	} {
		if c.typ != c.want {
			t.Errorf("message type %d, want %d", c.typ, c.want)
		}
	}
}
