package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendSplitVersioned(t *testing.T) {
	raw := AppendVersioned(nil, 42, []byte("payload"))
	if len(raw) != VersionLen+7 {
		t.Fatalf("len = %d", len(raw))
	}
	ver, val := SplitVersioned(raw)
	if ver != 42 || string(val) != "payload" {
		t.Fatalf("split = %d, %q", ver, val)
	}
	// Short (unversioned legacy) values read as version 0 with raw payload.
	ver, val = SplitVersioned([]byte("abc"))
	if ver != 0 || string(val) != "abc" {
		t.Fatalf("short split = %d, %q", ver, val)
	}
}

// putV, delV and wantV drive single versioned records through ApplyMulti —
// the store's one write entry — and assert the stored (version, payload).
func putV(tb testing.TB, s *Store, key string, ver uint64, val string) {
	tb.Helper()
	if err := s.ApplyMulti([]string{key}, []uint64{ver}, [][]byte{[]byte(val)}, nil); err != nil {
		tb.Fatalf("put %s@%d: %v", key, ver, err)
	}
}

func delV(tb testing.TB, s *Store, key string, ver uint64) {
	tb.Helper()
	if err := s.ApplyMulti([]string{key}, []uint64{ver}, [][]byte{nil}, []bool{true}); err != nil {
		tb.Fatalf("delete %s@%d: %v", key, ver, err)
	}
}

func wantV(tb testing.TB, s *Store, key string, ver uint64, val string) {
	tb.Helper()
	out, got, ok := s.GetVersioned(nil, key)
	if !ok || got != ver || string(out) != val {
		tb.Fatalf("GetVersioned(%s) = %q, %d, %v; want %q at %d", key, out, got, ok, val, ver)
	}
}

func TestApplyLastWriteWins(t *testing.T) {
	s := mustOpen(t, Options{})
	putV(t, s, "k", 10, "ten")
	// Older and equal versions lose silently — idempotent success.
	putV(t, s, "k", 9, "nine")
	putV(t, s, "k", 10, "ten2")
	wantV(t, s, "k", 10, "ten")
	// Newer wins.
	putV(t, s, "k", 11, "eleven")
	if ver, ok := s.Version("k"); !ok || ver != 11 {
		t.Fatalf("Version = %d, %v", ver, ok)
	}
	if _, ok := s.Version("missing"); ok {
		t.Fatal("Version(missing) reported present")
	}
	// Tombstoned keys always lose their version: any write applies.
	mustDelete(t, s, "k")
	putV(t, s, "k", 1, "reborn")
	wantV(t, s, "k", 1, "reborn")
	// A raw version-prefixed value split back into (version, payload) — what
	// membership streaming applies — is the same record under the same guard.
	ver, payload := SplitVersioned(AppendVersioned(nil, 20, []byte("streamed")))
	putV(t, s, "k", ver, string(payload))
	wantV(t, s, "k", 20, "streamed")
}

func TestVersionGuardAcrossFlush(t *testing.T) {
	s := mustOpen(t, Options{})
	putV(t, s, "k", 5, "five")
	s.Flush() // guard must read the version out of the run, not the memtable
	putV(t, s, "k", 4, "four")
	wantV(t, s, "k", 5, "five")
	putV(t, s, "k", 6, "six")
	wantV(t, s, "k", 6, "six")
	// A flushed tombstone counts as absent, like a memtable one.
	mustDelete(t, s, "k")
	s.Flush()
	putV(t, s, "k", 1, "reborn")
	wantV(t, s, "k", 1, "reborn")
}

func TestApplyMultiGuardsPerKey(t *testing.T) {
	s := mustOpen(t, Options{})
	putV(t, s, "b", 100, "newer")
	keys := []string{"a", "b", "c"}
	vals := [][]byte{[]byte("va"), []byte("vb"), []byte("vc")}
	if err := s.ApplyMulti(keys, []uint64{50, 50, 50}, vals, nil); err != nil {
		t.Fatal(err)
	}
	// a and c applied at 50; b kept its newer value.
	wantV(t, s, "a", 50, "va")
	wantV(t, s, "c", 50, "vc")
	wantV(t, s, "b", 100, "newer")
	// A batch where every key loses is a silent no-op.
	if err := s.ApplyMulti(keys, []uint64{10, 10, 10}, vals, nil); err != nil {
		t.Fatal(err)
	}
	wantV(t, s, "a", 50, "va")
	if err := s.ApplyMulti(nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// A batch is guarded against its own earlier records, not only against the
// store it lands on: a drain of [k@5, k@3] keeps k@5. The WAL logs only the
// records that landed, so recovery replays to the same state.
func TestApplyMultiGuardsWithinBatch(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var opts Options
			if durable {
				opts.Dir = t.TempDir()
			}
			s := mustOpen(t, opts)
			keys := []string{"k", "k", "j", "j", "j"}
			vers := []uint64{5, 3, 2, 9, 4}
			vals := [][]byte{[]byte("five"), []byte("three"), []byte("two"), []byte("nine"), []byte("four")}
			if err := s.ApplyMulti(keys, vers, vals, nil); err != nil {
				t.Fatal(err)
			}
			// A tombstone stores no version, so a later record of the same
			// batch lands on it, as it would in a batch of its own.
			if err := s.ApplyMulti([]string{"d", "d"}, []uint64{7, 1}, [][]byte{nil, []byte("one")}, []bool{true, false}); err != nil {
				t.Fatal(err)
			}
			check := func() {
				wantV(t, s, "k", 5, "five")
				wantV(t, s, "j", 9, "nine")
				wantV(t, s, "d", 1, "one")
			}
			check()
			if !durable {
				return
			}
			s.Crash()
			s = mustOpen(t, opts)
			defer s.Close()
			check()
		})
	}
}

func TestVersionedSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	putV(t, s, "k", 30, "thirty")
	s.Flush() // version guard via SST, including the file-backed prefix read
	putV(t, s, "wal-only", 7, "seven")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantV(t, s, "k", 30, "thirty")
	wantV(t, s, "wal-only", 7, "seven")
	putV(t, s, "k", 29, "late")
	wantV(t, s, "k", 30, "thirty")
}

func TestSidecarLogRoundtripAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer-1.log")
	var b []byte
	b = AppendLogRecord(b, LogPut, "alpha", AppendVersioned(nil, 3, []byte("va")))
	b = AppendLogRecord(b, LogPut, "beta", AppendVersioned(nil, 4, []byte("vb")))
	whole := int64(len(b))
	b = append(b, 0xDE, 0xAD) // torn tail: a partial third record
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	var vers []uint64
	valid, err := ReplayLog(path, func(op byte, key string, val []byte) {
		if op != LogPut {
			t.Fatalf("op = %d", op)
		}
		ver, payload := SplitVersioned(val)
		if !bytes.HasPrefix(payload, []byte("v")) {
			t.Fatalf("payload = %q", payload)
		}
		keys = append(keys, key)
		vers = append(vers, ver)
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != whole {
		t.Fatalf("valid prefix = %d, want %d", valid, whole)
	}
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" || vers[0] != 3 || vers[1] != 4 {
		t.Fatalf("replayed %v at %v", keys, vers)
	}

	// Truncating the torn tail leaves a log that replays identically.
	if err := TruncateLog(path, valid); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != whole {
		t.Fatalf("size after truncate = %v, %v", fi.Size(), err)
	}
	n := 0
	if _, err := ReplayLog(path, func(byte, string, []byte) { n++ }); err != nil || n != 2 {
		t.Fatalf("replay after truncate: %d records, %v", n, err)
	}
}

func TestDeleteGuard(t *testing.T) {
	s := mustOpen(t, Options{})
	putV(t, s, "k", 10, "ten")
	// An older delete loses to the stored version — idempotent no-op — and
	// so does an equal one (>= guard, same as puts).
	delV(t, s, "k", 9)
	delV(t, s, "k", 10)
	wantV(t, s, "k", 10, "ten")
	if s.Stats().Deletes != 0 {
		t.Fatal("guard-skipped delete counted as applied")
	}
	// A newer delete wins.
	delV(t, s, "k", 11)
	wantGet(t, s, "k", "")
	// Deleting an absent key writes a tombstone all the same.
	delV(t, s, "ghost", 5)
	if got := s.Stats().Deletes; got != 2 {
		t.Fatalf("Deletes = %d, want 2", got)
	}
	// Version-0 deletes are unconditional, matching the ver==0 put contract.
	putV(t, s, "u", 99, "v")
	mustDelete(t, s, "u")
	wantGet(t, s, "u", "")
}

func TestApplyMultiMixedPutsAndDeletes(t *testing.T) {
	s := mustOpen(t, Options{})
	putV(t, s, "old", 100, "keep")
	putV(t, s, "gone", 1, "bye")
	keys := []string{"a", "gone", "old", "b"}
	vers := []uint64{5, 6, 50, 0}
	vals := [][]byte{[]byte("va"), nil, []byte("late"), []byte("vb")}
	dels := []bool{false, true, false, false}
	if err := s.ApplyMulti(keys, vers, vals, dels); err != nil {
		t.Fatal(err)
	}
	// Put applied, delete applied, guarded put skipped — one commit group.
	wantV(t, s, "a", 5, "va")
	wantGet(t, s, "gone", "")
	wantV(t, s, "old", 100, "keep")
	wantGet(t, s, "b", "vb") // version 0: stored raw, no prefix
	if st := s.Stats(); st.Deletes != 1 || st.Puts != 4 {
		t.Fatalf("Stats = %d puts, %d deletes; want 4, 1", st.Puts, st.Deletes)
	}
}

func TestApplyMultiDeletesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	putV(t, s, "k", 1, "v")
	delV(t, s, "k", 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	wantGet(t, s, "k", "")
}

// TestMissVsEmpty pins the three distinct read outcomes the RESP gateway
// depends on: present-empty, tombstoned, and never-written.
func TestMissVsEmpty(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("empty", []byte{}); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("empty"); !ok || v == nil || len(v) != 0 {
		t.Fatalf("present-empty = %v, %v (want non-nil zero-length, true)", v, ok)
	}
	if err := s.Put("tomb", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Delete("tomb")
	if _, ok := s.Get("tomb"); ok {
		t.Fatal("tombstoned key reported present")
	}
	if _, ok := s.Get("never"); ok {
		t.Fatal("absent key reported present")
	}
	// Present-empty survives a flush to disk.
	s.Flush()
	if v, ok := s.Get("empty"); !ok || len(v) != 0 {
		t.Fatalf("present-empty after flush = %v, %v", v, ok)
	}
}

// TestSidecarLogDeleteRecords pins the walDelHint framing: sidecar delete
// records are put-shaped (they carry the version stamp in the value section)
// and replay with op == LogDelete.
func TestSidecarLogDeleteRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peer-2.log")
	var b []byte
	b = AppendLogRecord(b, LogPut, "alive", AppendVersioned(nil, 7, []byte("v")))
	b = AppendLogRecord(b, LogDelete, "dead", AppendVersioned(nil, 8, nil))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		op  byte
		key string
		ver uint64
	}
	var got []rec
	if _, err := ReplayLog(path, func(op byte, key string, val []byte) {
		ver, _ := SplitVersioned(val)
		got = append(got, rec{op, key, ver})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records", len(got))
	}
	if got[0] != (rec{LogPut, "alive", 7}) {
		t.Fatalf("rec 0 = %+v", got[0])
	}
	if got[1] != (rec{LogDelete, "dead", 8}) {
		t.Fatalf("rec 1 = %+v (delete hint lost its version)", got[1])
	}
}
