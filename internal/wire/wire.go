// Package wire is the binary protocol of the TCP key-value store: length-
// prefixed frames carrying read/write requests and responses. Every response
// piggybacks the C3 feedback fields — the server's pending-read count and its
// smoothed service time — exactly as §4 describes for the Cassandra
// implementation ("this information is piggybacked to the coordinator and
// serves as the feedback for the replica ranking").
//
// Frame layout (little endian):
//
//	uint32  payload length (excluding these 4 bytes)
//	uint8   message type
//	uint64  request id
//	...     type-specific payload
//
// Read responses carry the value bytes *before* the feedback fields so a
// server can stream the value straight out of its storage engine and only
// then sample its queue-size/service-time feedback — the feedback describes
// the state after the read completed, as in §3.1.
//
// # Hot-path contract
//
// The package is built for an allocation-free steady state:
//
//   - Encoding is exposed as pure append functions (AppendReadReq, …) that
//     extend a caller-owned buffer, so connection writers can pool frame
//     buffers and coalesce many frames per flush.
//   - Writer no longer flushes per frame: frames accumulate in its buffer
//     until an explicit Flush, amortizing write syscalls under load.
//   - Decoding is zero-copy: parsed Value slices alias the input payload and
//     parsed Key strings alias it via unsafe.String. Both are valid only
//     until the frame buffer is reused (for Reader payloads: until the next
//     call to Next). Callers that retain or escape them must copy
//     (strings.Clone / append) first.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Message types. Client→coordinator requests come as point or batch frames;
// coordinator→replica traffic is batch frames only, whatever its key count:
// MsgBatchReadInternal for every read leg, MsgBatchWriteInternal for every
// write leg and hint replay, MsgStreamPush for read-repair write-backs and
// every page of a key-range move. Two slots are reserved for the retired point internal
// frames, so every other type keeps its byte value.
const (
	// MsgRead is a client→coordinator read.
	MsgRead uint8 = iota + 1
	// Reserved: the retired coordinator→replica point read.
	_
	MsgReadResp
	// MsgWrite is a client→coordinator write.
	MsgWrite
	// Reserved: the retired coordinator→replica point write.
	_
	MsgWriteResp
	// MsgBatchRead is a client→coordinator multi-key read: one frame carries
	// every key of a MultiGet, amortizing framing, rate-limiter decisions,
	// and flushes over the whole batch.
	MsgBatchRead
	// MsgBatchReadInternal is a coordinator→replica read leg: the subset of
	// a read's keys owned by one replica group — one key or many — coalesced
	// into a single frame and served as one unit against the storage engine.
	MsgBatchReadInternal
	MsgBatchReadResp
	// MsgBatchWrite is a client→coordinator multi-key write.
	MsgBatchWrite
	// MsgBatchWriteInternal is a coordinator→replica write leg (or a hint
	// replay) under one version stamp: one key or many, puts or, with Del,
	// guarded tombstones.
	MsgBatchWriteInternal
	MsgBatchWriteResp
	// MsgRingUpdate announces a versioned topology (see membership.go). It is
	// both a push request (seed/joiner/leaver → member, answered by
	// MsgRingAck) and the response to MsgJoinReq.
	MsgRingUpdate
	// MsgRingAck acknowledges a pushed MsgRingUpdate with the receiver's
	// resulting epoch.
	MsgRingAck
	// MsgJoinReq asks a member to admit the sender into the cluster.
	MsgJoinReq
	// MsgStreamReq asks a replica to push the keys it owns inside a token
	// range to a named node — how a joiner or a rebuilding node gets its
	// owed ranges.
	MsgStreamReq
	// MsgStreamChunk answers a MsgStreamReq with a status once the push is
	// over (or a wrong-epoch rejection); it carries no keys.
	MsgStreamChunk
	// MsgStreamPush carries records that each keep their own version: one
	// page of a key range moving to a new owner (a join, a rebuild or a
	// decommission), or a read repair's write-back to a stale replica. Same
	// payload layout as MsgBatchWriteInternal (encode with
	// AppendBatchWriteReq, decode with ParseBatchWriteReq, acked by
	// MsgBatchWriteResp), but the values are raw version-prefixed storage
	// bytes and the receiver applies each pair under the last-write-wins
	// guard — a streamed pre-move value must never clobber a newer
	// dual-routed write. A key-range page sets the frame Version to ArcPage.
	MsgStreamPush
)

// MaxFrame bounds a frame payload; anything larger is a protocol error.
const MaxFrame = 16 << 20

// Limits within a frame. MaxKeyLen must fit the uint16 length prefix — a
// 1<<16 key would silently wrap the prefix to 0 and corrupt the frame.
const (
	MaxKeyLen   = 1<<16 - 1
	MaxValueLen = 8 << 20
	// MaxBatchKeys bounds the key count of one batch frame. It must fit the
	// uint16 count prefix; the tighter bound keeps a single batch from
	// monopolizing a replica's serving loop and bounds decoder scratch.
	MaxBatchKeys = 4096
)

// VersionPrefix is the length of the version prefix carried inside the value
// bytes of read responses and streamed pages: the coordinator stamps every
// write with a 64-bit HLC-style version, the storage engine keeps it as an
// 8-byte little-endian prefix of the stored value, and read responses ship
// the raw prefixed bytes so a server can stream storage output into the
// frame unchanged. Decoders split the prefix into the Version field.
const VersionPrefix = 8

// maxWireValue bounds a value field on the wire: the client-facing payload
// cap plus the version prefix read responses carry.
const maxWireValue = MaxValueLen + VersionPrefix

// Per-operation consistency levels, carried in the low bits of the CL byte
// of client-facing requests. The zero value is ONE, so old encoders remain
// valid frames.
const (
	// LevelOne acks a read or write after the first replica response — the
	// latency-optimal default, C3's native regime.
	LevelOne uint8 = iota
	// LevelQuorum acks after ⌊N/2⌋+1 replicas; R+W>N read-your-writes.
	LevelQuorum
	// LevelAll acks only when every replica responded.
	LevelAll
)

// The CL byte of a read request: the level in the low two bits, and above
// them flags. A parser rejects any bit it does not know, so a flag is never
// silently dropped.
const (
	levelMask = 1<<2 - 1
	// readFlagDigest marks a version-only read (ReadReq.Digest).
	readFlagDigest = 1 << 7
)

// Response status codes: one byte on read/write responses so clients can
// map failures to a typed error taxonomy. Zero is OK, so old encoders
// remain valid frames.
const (
	// StatusOK reports success at the requested level.
	StatusOK uint8 = iota
	// StatusWriteFailed reports that no replica applied a write.
	StatusWriteFailed
	// StatusQuorumUnavailable reports fewer live replicas than the level
	// requires (or a full hint log refusing to accept more debt).
	StatusQuorumUnavailable
	// StatusTimeout reports that the operation budget expired before the
	// level was satisfied.
	StatusTimeout
)

// MaxRetainedBuffer caps the frame buffer a Reader keeps across frames. A
// single MaxFrame-sized frame would otherwise pin megabytes for the
// connection's lifetime; after serving an oversized frame the Reader shrinks
// back to this cap.
const MaxRetainedBuffer = 64 << 10

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Feedback is the per-response server feedback (§3.1's q_s and 1/µ_s).
type Feedback struct {
	QueueSize float64
	ServiceNs int64
}

// ReadReq asks a coordinator for a key at consistency level CL. Digest
// (meaningful on internal batch reads, see BatchReadReq) asks for the stored
// version alone: a found response carries the 8-byte version prefix and no
// payload, so it decodes with Found, Version and an empty Value.
// Coordinators ignore it on client frames.
type ReadReq struct {
	ID     uint64
	CL     uint8
	Digest bool
	Key    string
}

// ReadResp answers a read. Version is the stored value's coordinator stamp
// (0 when absent); Status classifies coordinator-level failures.
type ReadResp struct {
	ID      uint64
	Found   bool
	Status  uint8
	Version uint64
	Value   []byte
	FB      Feedback
}

// WriteReq stores a value — or, with Del set, removes one: a delete travels
// the write path end to end (same fan-out, same hints, same version stamp)
// and the replica applies it as a version-guarded tombstone. Client frames
// carry CL and leave Version zero; coordinator→replica frames carry the
// stamped Version (CL unused). On the wire Del rides in a mandatory flags
// byte between Version and Key.
type WriteReq struct {
	ID      uint64
	CL      uint8
	Version uint64
	Del     bool
	Key     string
	Value   []byte
}

// writeFlagDel is the Del bit inside WriteReq's flags byte.
const writeFlagDel = 1 << 0

// WriteResp acknowledges a write. OK distinguishes a genuine ack from a
// failure report: a replica sets it after applying the write locally, and a
// coordinator sets it only when the requested level was met — an
// under-quorum write comes back with OK false and a Status classifying why,
// and must surface as an error, never as an ack.
type WriteResp struct {
	ID     uint64
	OK     bool
	Status uint8
	FB     Feedback
}

// BatchReadReq asks for many keys in one frame (MsgBatchRead /
// MsgBatchReadInternal). CL and Digest as in ReadReq; an internal read is
// always replica-local and ignores CL.
type BatchReadReq struct {
	ID     uint64
	CL     uint8
	Digest bool
	Keys   []string
}

// BatchItem is one key's result within a batch read response.
type BatchItem struct {
	Found   bool
	Version uint64
	Value   []byte
}

// BatchReadResp answers a batch read: per-key results in request order, plus
// one feedback sample describing the server after the whole sub-batch was
// served. The feedback's weight is the batch size — the client folds it into
// its estimators once per key, so a 32-key sub-batch trains q̂ as 32 reads.
type BatchReadResp struct {
	ID    uint64
	Items []BatchItem
	FB    Feedback
}

// BatchWriteReq stores many key/value pairs in one frame (MsgBatchWrite /
// MsgBatchWriteInternal). One Version stamps the whole batch — versions
// compare per key, so a shared stamp is sound. CL, Version and Del as in
// WriteReq; Del makes every record a guarded tombstone (values ignored) and
// rides in the same mandatory flags byte, here between Version and the key
// count. Only a coordinator→replica leg may set it: batch delete is not a
// client feature.
type BatchWriteReq struct {
	ID      uint64
	CL      uint8
	Version uint64
	Del     bool
	Keys    []string
	Values  [][]byte
}

// BatchWriteResp acknowledges a batch write with per-key OK flags in request
// order (see WriteResp for the OK contract), one batch-level Status, and one
// feedback sample.
type BatchWriteResp struct {
	ID     uint64
	Status uint8
	OK     []bool
	FB     Feedback
}

// --- encoding -------------------------------------------------------------

// beginFrame appends the 5-byte frame header with a length placeholder,
// returning the extended buffer and the header's offset for endFrame.
func beginFrame(dst []byte, typ uint8) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	return dst, start
}

// endFrame patches the length prefix of the frame begun at start.
func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 4 // payload length, including the type byte
	if n-1 > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(n))
	return dst, nil
}

func appendU64(dst []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte   { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStr(dst []byte, s string) ([]byte, error) {
	if len(s) > MaxKeyLen {
		return dst, fmt.Errorf("wire: key length %d exceeds limit", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendBytes(dst []byte, b []byte) ([]byte, error) {
	if len(b) > maxWireValue {
		return dst, fmt.Errorf("wire: value length %d exceeds limit", len(b))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

// appendReadCL appends the CL byte of a read request: the level plus the
// digest flag.
func appendReadCL(dst []byte, cl uint8, digest bool) ([]byte, error) {
	if cl&^levelMask != 0 {
		return dst, fmt.Errorf("wire: consistency level %d out of range", cl)
	}
	if digest {
		cl |= readFlagDigest
	}
	return append(dst, cl), nil
}

func appendFeedback(dst []byte, fb Feedback) []byte {
	dst = appendF64(dst, fb.QueueSize)
	return appendI64(dst, fb.ServiceNs)
}

// AppendReadReq appends a complete framed read request of the given type
// (MsgRead) to dst. On error dst is returned unchanged.
func AppendReadReq(dst []byte, typ uint8, m ReadReq) ([]byte, error) {
	dst, start := beginFrame(dst, typ)
	dst, err := appendReadCL(appendU64(dst, m.ID), m.CL, m.Digest)
	if err == nil {
		dst, err = appendStr(dst, m.Key)
	}
	if err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start)
}

// AppendReadResp appends a complete framed read response to dst. A found
// response's value field carries the version prefix followed by the payload
// (see VersionPrefix); an absent one carries no value bytes.
func AppendReadResp(dst []byte, m ReadResp) ([]byte, error) {
	dst, start := beginFrame(dst, MsgReadResp)
	dst = append(appendBool(appendU64(dst, m.ID), m.Found), m.Status)
	if m.Found {
		if len(m.Value) > MaxValueLen {
			return dst[:start], fmt.Errorf("wire: value length %d exceeds limit", len(m.Value))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(VersionPrefix+len(m.Value)))
		dst = appendU64(dst, m.Version)
		dst = append(dst, m.Value...)
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, 0)
	}
	return endFrame(appendFeedback(dst, m.FB), start)
}

// ReadRespMark tracks an in-progress streamed read response between
// BeginReadResp and FinishReadResp.
type ReadRespMark struct{ start, foundAt, lenAt int }

// BeginReadResp starts a read-response frame whose value bytes the caller
// appends directly — the zero-copy server path: the storage engine writes
// the raw version-prefixed value straight into the outgoing frame buffer
// (lsm stores the 8-byte version prefix inline, so GetAppend output IS the
// wire value field). Append only, then call FinishReadResp with the same
// mark.
func BeginReadResp(dst []byte, id uint64) ([]byte, ReadRespMark) {
	dst, start := beginFrame(dst, MsgReadResp)
	dst = appendU64(dst, id)
	m := ReadRespMark{start: start, foundAt: len(dst)}
	dst = append(dst, 0, 0) // found, status placeholders
	m.lenAt = len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, m
}

// FinishReadResp completes a frame begun with BeginReadResp: it patches the
// found flag, status, and value length, then appends the feedback — sampled
// after the value was produced, so it reflects the post-read server state.
// On error dst is returned with the partial frame removed.
func FinishReadResp(dst []byte, m ReadRespMark, found bool, status uint8, fb Feedback) ([]byte, error) {
	vlen := len(dst) - m.lenAt - 4
	if vlen < 0 {
		return dst[:m.start], errors.New("wire: value bytes truncated the buffer")
	}
	if vlen > maxWireValue {
		return dst[:m.start], fmt.Errorf("wire: value length %d exceeds limit", vlen)
	}
	if found {
		dst[m.foundAt] = 1
	}
	dst[m.foundAt+1] = status
	binary.LittleEndian.PutUint32(dst[m.lenAt:m.lenAt+4], uint32(vlen))
	return endFrame(appendFeedback(dst, fb), m.start)
}

// AppendWriteReq appends a complete framed write request of the given type
// (MsgWrite) to dst.
func AppendWriteReq(dst []byte, typ uint8, m WriteReq) ([]byte, error) {
	dst, start := beginFrame(dst, typ)
	dst = appendWriteHead(dst, m.ID, m.CL, m.Version, m.Del)
	dst, err := appendStr(dst, m.Key)
	if err != nil {
		return dst[:start], err
	}
	if dst, err = appendBytes(dst, m.Value); err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start)
}

// appendWriteHead appends the head every write request shares: id, CL,
// version and the flags byte.
func appendWriteHead(dst []byte, id uint64, cl uint8, ver uint64, del bool) []byte {
	var flags uint8
	if del {
		flags |= writeFlagDel
	}
	return append(appendU64(append(appendU64(dst, id), cl), ver), flags)
}

// AppendWriteResp appends a complete framed write acknowledgement to dst.
func AppendWriteResp(dst []byte, m WriteResp) ([]byte, error) {
	dst, start := beginFrame(dst, MsgWriteResp)
	dst = append(appendBool(appendU64(dst, m.ID), m.OK), m.Status)
	return endFrame(appendFeedback(dst, m.FB), start)
}

// --- batch encoding -------------------------------------------------------
//
// Batch frames share the point-frame building blocks: u16-prefixed keys,
// u32-prefixed values, feedback last. The payload leads with a u16 key count;
// per-key records follow in request order. Read responses keep the
// value-before-feedback layout, so a replica streams every value straight out
// of the storage engine and samples its queue feedback only after the whole
// sub-batch was served.

// appendBatchCount validates and appends the u16 batch key count.
func appendBatchCount(dst []byte, n int) ([]byte, error) {
	if n < 1 || n > MaxBatchKeys {
		return dst, fmt.Errorf("wire: batch of %d keys outside [1, %d]", n, MaxBatchKeys)
	}
	return binary.LittleEndian.AppendUint16(dst, uint16(n)), nil
}

// AppendBatchReadReq appends a complete framed batch read request of the
// given type (MsgBatchRead or MsgBatchReadInternal) to dst.
func AppendBatchReadReq(dst []byte, typ uint8, m BatchReadReq) ([]byte, error) {
	dst, start := beginFrame(dst, typ)
	dst, err := appendReadCL(appendU64(dst, m.ID), m.CL, m.Digest)
	if err == nil {
		dst, err = appendBatchCount(dst, len(m.Keys))
	}
	if err != nil {
		return dst[:start], err
	}
	for _, k := range m.Keys {
		if dst, err = appendStr(dst, k); err != nil {
			return dst[:start], err
		}
	}
	return endFrame(dst, start)
}

// AppendBatchWriteReq appends a complete framed batch write request of the
// given type (MsgBatchWrite or MsgBatchWriteInternal) to dst. Keys and Values
// must be the same length.
func AppendBatchWriteReq(dst []byte, typ uint8, m BatchWriteReq) ([]byte, error) {
	if len(m.Keys) != len(m.Values) {
		return dst, fmt.Errorf("wire: batch write %d keys vs %d values", len(m.Keys), len(m.Values))
	}
	dst, start := beginFrame(dst, typ)
	dst, err := appendBatchCount(appendWriteHead(dst, m.ID, m.CL, m.Version, m.Del), len(m.Keys))
	if err != nil {
		return dst[:start], err
	}
	for i, k := range m.Keys {
		if dst, err = appendStr(dst, k); err != nil {
			return dst[:start], err
		}
		if dst, err = appendBytes(dst, m.Values[i]); err != nil {
			return dst[:start], err
		}
	}
	return endFrame(dst, start)
}

// AppendBatchWriteResp appends a complete framed batch write acknowledgement
// to dst.
func AppendBatchWriteResp(dst []byte, m BatchWriteResp) ([]byte, error) {
	dst, start := beginFrame(dst, MsgBatchWriteResp)
	dst, err := appendBatchCount(append(appendU64(dst, m.ID), m.Status), len(m.OK))
	if err != nil {
		return dst[:start], err
	}
	for _, ok := range m.OK {
		dst = appendBool(dst, ok)
	}
	return endFrame(appendFeedback(dst, m.FB), start)
}

// BatchReadRespMark tracks an in-progress streamed batch read response
// between BeginBatchReadResp and FinishBatchReadResp.
type BatchReadRespMark struct {
	start   int
	countAt int
	count   int
	foundAt int // current item's found-flag offset; -1 outside an item
	lenAt   int // current item's value-length offset
}

// BeginBatchReadResp starts a batch read-response frame. For each key, in
// request order, call BeginBatchReadItem, append the value bytes directly
// (the zero-copy server path — e.g. lsm.Store.GetAppend), then
// FinishBatchReadItem; close the frame with FinishBatchReadResp.
func BeginBatchReadResp(dst []byte, id uint64) ([]byte, BatchReadRespMark) {
	dst, start := beginFrame(dst, MsgBatchReadResp)
	dst = appendU64(dst, id)
	m := BatchReadRespMark{start: start, countAt: len(dst), foundAt: -1}
	dst = append(dst, 0, 0) // count placeholder
	return dst, m
}

// BeginBatchReadItem opens the next per-key record: the caller appends the
// key's value bytes (if any) directly to the returned buffer.
func BeginBatchReadItem(dst []byte, m *BatchReadRespMark) []byte {
	m.foundAt = len(dst)
	dst = append(dst, 0)
	m.lenAt = len(dst)
	return append(dst, 0, 0, 0, 0)
}

// FinishBatchReadItem closes the record opened by the matching
// BeginBatchReadItem, patching its found flag and value length.
func FinishBatchReadItem(dst []byte, m *BatchReadRespMark, found bool) ([]byte, error) {
	if m.foundAt < 0 {
		return dst, errors.New("wire: FinishBatchReadItem without BeginBatchReadItem")
	}
	vlen := len(dst) - m.lenAt - 4
	if vlen < 0 {
		return dst[:m.start], errors.New("wire: value bytes truncated the buffer")
	}
	if vlen > maxWireValue {
		return dst[:m.start], fmt.Errorf("wire: value length %d exceeds limit", vlen)
	}
	if found {
		dst[m.foundAt] = 1
	}
	binary.LittleEndian.PutUint32(dst[m.lenAt:m.lenAt+4], uint32(vlen))
	m.foundAt = -1
	m.count++
	return dst, nil
}

// FinishBatchReadResp completes the frame: it patches the item count and
// appends the feedback — sampled after every item was produced, so it
// reflects the post-batch server state.
func FinishBatchReadResp(dst []byte, m BatchReadRespMark, fb Feedback) ([]byte, error) {
	if m.foundAt >= 0 {
		return dst[:m.start], errors.New("wire: batch item left open")
	}
	if m.count < 1 || m.count > MaxBatchKeys {
		return dst[:m.start], fmt.Errorf("wire: batch of %d items outside [1, %d]", m.count, MaxBatchKeys)
	}
	binary.LittleEndian.PutUint16(dst[m.countAt:m.countAt+2], uint16(m.count))
	return endFrame(appendFeedback(dst, fb), m.start)
}

// AppendBatchReadResp appends a complete framed batch read response to dst —
// the non-streaming construction (tests, fuzzing); servers use the
// Begin/Finish streaming API instead.
func AppendBatchReadResp(dst []byte, m BatchReadResp) ([]byte, error) {
	dst, mark := BeginBatchReadResp(dst, m.ID)
	var err error
	for _, it := range m.Items {
		dst = BeginBatchReadItem(dst, &mark)
		if it.Found {
			dst = appendU64(dst, it.Version) // found values carry the prefix
			dst = append(dst, it.Value...)
		}
		if dst, err = FinishBatchReadItem(dst, &mark, it.Found); err != nil {
			return dst, err
		}
	}
	return FinishBatchReadResp(dst, mark, m.FB)
}

// Writer frames outgoing messages into a buffer. Frames accumulate until an
// explicit Flush — a per-connection writer goroutine coalesces many frames
// per flush to amortize write syscalls. Not safe for concurrent use; callers
// serialize.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Flush pushes every buffered frame to the underlying writer in one write.
func (w *Writer) Flush() error { return w.w.Flush() }

// Buffered reports how many framed bytes await a Flush.
func (w *Writer) Buffered() int { return w.w.Buffered() }

// WriteRaw buffers one already-encoded frame (built by the Append*
// functions). The frame bytes are copied; the caller may recycle them.
func (w *Writer) WriteRaw(frame []byte) error {
	_, err := w.w.Write(frame)
	return err
}

// Reader parses incoming frames. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
	hdr [5]byte // header scratch; a field so it does not escape per call
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Reset redirects the Reader to a new source, retaining its buffers — this
// is what makes a steady-state decode loop allocation-free (see the
// AllocsPerRun round-trip test) and supports future connection reuse.
func (r *Reader) Reset(src io.Reader) { r.r.Reset(src) }

// Next reads one frame, returning its type and payload. The payload aliases
// the Reader's internal buffer and is valid only until the next call to
// Next; anything parsed out of it that must outlive the frame (Key strings,
// Value slices — see the package contract) has to be copied. Frames larger
// than MaxRetainedBuffer are served from a temporary buffer that is shrunk
// back afterwards, so one oversized frame does not pin its memory for the
// connection's lifetime.
func (r *Reader) Next() (uint8, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	typ := r.hdr[4]
	body := int(n) - 1
	switch {
	case cap(r.buf) < body:
		r.buf = make([]byte, body)
	case body <= MaxRetainedBuffer && cap(r.buf) > MaxRetainedBuffer:
		// A past oversized frame grew the buffer; shrink back to the cap.
		r.buf = make([]byte, body, MaxRetainedBuffer)
	default:
		r.buf = r.buf[:body]
	}
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, err
	}
	return typ, r.buf, nil
}

// decoder walks a payload with bounds checks.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil || len(d.b) < n {
		d.err = errors.New("wire: truncated frame")
		return false
	}
	return true
}
func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// str returns a string aliasing the payload (zero-copy). The string is valid
// only as long as the payload's backing buffer; retainers must
// strings.Clone.
func (d *decoder) str() string {
	if !d.need(2) {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(d.b))
	d.b = d.b[2:]
	if n == 0 {
		return ""
	}
	if !d.need(n) {
		return ""
	}
	s := unsafe.String(&d.b[0], n)
	d.b = d.b[n:]
	return s
}

// bytes returns a slice aliasing the payload (zero-copy, capacity clamped so
// appends cannot scribble on the rest of the frame). Valid only as long as
// the payload's backing buffer; retainers must copy.
func (d *decoder) bytes() []byte {
	if !d.need(4) {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(d.b))
	d.b = d.b[4:]
	if n > maxWireValue || !d.need(n) {
		d.err = errors.New("wire: bad value length")
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// versionedBytes decodes a value field that carries the version prefix
// (read responses, batch items), splitting it off. Short fields (absent
// values, legacy encoders) read as version 0.
func (d *decoder) versionedBytes() (uint64, []byte) {
	raw := d.bytes()
	if len(raw) < VersionPrefix {
		return 0, raw
	}
	return binary.LittleEndian.Uint64(raw), raw[VersionPrefix:]
}

// readCL decodes the CL byte of a read request into its level and digest
// flag, rejecting unknown bits.
func (d *decoder) readCL() (cl uint8, digest bool) {
	b := d.u8()
	if b&^(levelMask|readFlagDigest) != 0 && d.err == nil {
		d.err = errors.New("wire: unknown read flags")
	}
	return b & levelMask, b&readFlagDigest != 0
}

// ParseReadReq decodes a MsgRead payload. The returned Key aliases b (see
// the package contract).
func ParseReadReq(b []byte) (ReadReq, error) {
	d := decoder{b: b}
	m := ReadReq{ID: d.u64()}
	m.CL, m.Digest = d.readCL()
	m.Key = d.str()
	return m, d.err
}

// ParseReadResp decodes a MsgReadResp payload. The returned Value aliases b
// (see the package contract).
func ParseReadResp(b []byte) (ReadResp, error) {
	d := decoder{b: b}
	m := ReadResp{ID: d.u64()}
	m.Found = d.u8() == 1
	m.Status = d.u8()
	m.Version, m.Value = d.versionedBytes()
	m.FB.QueueSize = d.f64()
	m.FB.ServiceNs = d.i64()
	return m, d.err
}

// ParseWriteReq decodes a MsgWrite payload. The returned Key and Value alias
// b (see the package contract).
func ParseWriteReq(b []byte) (WriteReq, error) {
	d := decoder{b: b}
	m := WriteReq{ID: d.u64(), CL: d.u8(), Version: d.u64(), Del: d.writeFlags()}
	m.Key = d.str()
	m.Value = d.bytes()
	return m, d.err
}

// writeFlags decodes a write request's flags byte into its Del bit,
// rejecting unknown bits: a Del misread as a put would resurrect the key.
func (d *decoder) writeFlags() bool {
	flags := d.u8()
	if flags&^writeFlagDel != 0 && d.err == nil {
		d.err = errors.New("wire: unknown write flags")
	}
	return flags&writeFlagDel != 0
}

// ParseWriteResp decodes a MsgWriteResp payload.
func ParseWriteResp(b []byte) (WriteResp, error) {
	d := decoder{b: b}
	m := WriteResp{ID: d.u64()}
	m.OK = d.u8() == 1
	m.Status = d.u8()
	m.FB.QueueSize = d.f64()
	m.FB.ServiceNs = d.i64()
	return m, d.err
}

// batchCount decodes and validates the u16 batch key count.
func (d *decoder) batchCount() int {
	if !d.need(2) {
		return 0
	}
	n := int(binary.LittleEndian.Uint16(d.b))
	d.b = d.b[2:]
	if n < 1 || n > MaxBatchKeys {
		d.err = errors.New("wire: bad batch count")
		return 0
	}
	return n
}

// ParseBatchReadReq decodes a MsgBatchRead/MsgBatchReadInternal payload into
// keys (grown as needed and returned inside the result — pass a retained
// scratch slice for allocation-free steady state). The returned Keys alias b
// (see the package contract).
func ParseBatchReadReq(b []byte, keys []string) (BatchReadReq, error) {
	d := decoder{b: b}
	m := BatchReadReq{ID: d.u64()}
	m.CL, m.Digest = d.readCL()
	n := d.batchCount()
	keys = keys[:0]
	for i := 0; i < n && d.err == nil; i++ {
		keys = append(keys, d.str())
	}
	m.Keys = keys
	return m, d.err
}

// ParseBatchReadResp decodes a MsgBatchReadResp payload into items (grown as
// needed, like ParseBatchReadReq's keys). The returned Values alias b (see
// the package contract).
func ParseBatchReadResp(b []byte, items []BatchItem) (BatchReadResp, error) {
	d := decoder{b: b}
	m := BatchReadResp{ID: d.u64()}
	n := d.batchCount()
	items = items[:0]
	for i := 0; i < n && d.err == nil; i++ {
		it := BatchItem{Found: d.u8() == 1}
		it.Version, it.Value = d.versionedBytes()
		items = append(items, it)
	}
	m.Items = items
	m.FB.QueueSize = d.f64()
	m.FB.ServiceNs = d.i64()
	return m, d.err
}

// ParseBatchWriteReq decodes a MsgBatchWrite/MsgBatchWriteInternal payload
// into keys and values (grown as needed). The returned Keys and Values alias
// b (see the package contract).
func ParseBatchWriteReq(b []byte, keys []string, values [][]byte) (BatchWriteReq, error) {
	d := decoder{b: b}
	m := BatchWriteReq{ID: d.u64(), CL: d.u8(), Version: d.u64(), Del: d.writeFlags()}
	n := d.batchCount()
	keys, values = keys[:0], values[:0]
	for i := 0; i < n && d.err == nil; i++ {
		keys = append(keys, d.str())
		values = append(values, d.bytes())
	}
	m.Keys, m.Values = keys, values
	return m, d.err
}

// ParseBatchWriteResp decodes a MsgBatchWriteResp payload into oks (grown as
// needed).
func ParseBatchWriteResp(b []byte, oks []bool) (BatchWriteResp, error) {
	d := decoder{b: b}
	m := BatchWriteResp{ID: d.u64(), Status: d.u8()}
	n := d.batchCount()
	oks = oks[:0]
	for i := 0; i < n && d.err == nil; i++ {
		oks = append(oks, d.u8() == 1)
	}
	m.OK = oks
	m.FB.QueueSize = d.f64()
	m.FB.ServiceNs = d.i64()
	return m, d.err
}
