package wire

import (
	"encoding/binary"
	"os"
	"strconv"
	"testing"
)

// TestGenerateCorpus regenerates the committed fuzz seed corpus when
// C3_REGEN_CORPUS is set; otherwise it only verifies the files exist.
func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("C3_REGEN_CORPUS") == "" {
		t.Skip("set C3_REGEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	writeEntry := func(path string, b []byte) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dir := "testdata/fuzz/FuzzDecode/"
	ru := must(AppendRingUpdate(nil, RingUpdate{
		ID: 1, Epoch: 0x1122334455667788, RF: 2, Phase: PhaseJoin, Subject: 2,
		Nodes: []RingNode{
			{ID: 0, Token: -10, Addr: "127.0.0.1:1"},
			{ID: 1, Token: 0, Addr: "127.0.0.1:2"},
			{ID: 2, Token: 10, Addr: "127.0.0.1:3"},
		}}))
	writeEntry(dir+"seed-ring-update", ru[5:])
	writeEntry(dir+"seed-ring-truncated-epoch", ru[5:5+12])
	zero := append([]byte(nil), ru[5:5+22]...)
	zero = append(zero, 0, 0)
	writeEntry(dir+"seed-ring-zero-nodes", zero)
	wrap := must(AppendStreamReq(nil, StreamReq{ID: 2, Epoch: 3, Start: 100, End: -100, To: 4}))
	writeEntry(dir+"seed-stream-wrapping-arc", wrap[5:])
	full := must(AppendStreamReq(nil, StreamReq{ID: 3, Epoch: 3, Start: 7, End: 7, To: 1}))
	writeEntry(dir+"seed-stream-degenerate-arc", full[5:])
	nack := must(AppendStreamChunk(nil, StreamChunk{ID: 4, Status: StreamWrongEpoch, Epoch: 9}))
	writeEntry(dir+"seed-stream-wrong-epoch", nack[5:])
	// One page of a range move: version-prefixed values, the second empty.
	v0 := append(binary.LittleEndian.AppendUint64(nil, 7), "v0"...)
	v1 := binary.LittleEndian.AppendUint64(nil, 8)
	page := must(AppendBatchWriteReq(nil, MsgStreamPush, BatchWriteReq{ID: 5, Version: ArcPage,
		Keys: []string{"k0", "k1"}, Values: [][]byte{v0, v1}}))
	writeEntry(dir+"seed-stream-page", page[5:])
	digest := must(AppendBatchReadReq(nil, MsgBatchReadInternal, BatchReadReq{ID: 6, CL: LevelQuorum,
		Digest: true, Keys: []string{"k0", "k1"}}))
	writeEntry(dir+"seed-batch-read-digest", digest[5:])
	unknown := must(AppendReadReq(nil, MsgRead, ReadReq{ID: 7, Digest: true, Key: "k"}))
	unknown[5+8] |= 1 << 3 // a CL bit no version knows: must fail parse
	writeEntry(dir+"seed-read-unknown-flag", unknown[5:])
	del := must(AppendBatchWriteReq(nil, MsgBatchWriteInternal, BatchWriteReq{ID: 8, Version: 42,
		Del: true, Keys: []string{"k0", "k1"}, Values: [][]byte{nil, nil}}))
	writeEntry(dir+"seed-batch-write-del", del[5:])
}
