package lsm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// logOne appends one record to w as a commit group of its own.
func logOne(t *testing.T, w *wal, key string) uint64 {
	t.Helper()
	if err := w.lockAppend(); err != nil {
		t.Fatalf("lockAppend: %v", err)
	}
	w.appendLocked(key, []byte("v"))
	return w.unlockAppend(1)
}

// A commit group is a sequence number, and its outcome is decided by the
// marks the committer publishes: a group written before an injected write
// failure stays durable, the group that hit it and everything after it fail
// with the one sticky error, and the wedged log refuses new records.
func TestWALGroupErrorsAreSticky(t *testing.T) {
	w, err := openWAL(t.TempDir(), 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	g1 := logOne(t, w, "a")
	if err := w.wait(g1); err != nil {
		t.Fatalf("group written before the failure: %v", err)
	}
	w.ioMu.Lock()
	w.f.Close() // the next write fails
	w.ioMu.Unlock()
	g2 := logOne(t, w, "b")
	werr := w.wait(g2)
	if werr == nil {
		t.Fatal("group written into a closed file reported durable")
	}
	if err := w.wait(g1); err != nil {
		t.Fatalf("earlier group after the failure: %v", err)
	}
	if err := w.wait(g2); !errors.Is(err, werr) {
		t.Fatalf("failed group waited on again: %v, want %v", err, werr)
	}
	if err := w.lockAppend(); !errors.Is(err, werr) {
		t.Fatalf("append to a wedged log: %v, want %v", err, werr)
	}
	if err := w.sync(); !errors.Is(err, werr) {
		t.Fatalf("sync of a wedged log: %v, want %v", err, werr)
	}
}

// crash releases every waiter whose group the committer has not taken with
// ErrClosed, at once, even while the committer is stuck in a write; the group
// being written keeps its own outcome.
func TestWALCrashReleasesWaiters(t *testing.T) {
	w, err := openWAL(t.TempDir(), 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w.ioMu.Lock() // the committer stalls inside its next write
	g1 := logOne(t, w, "in-flight")
	for {
		w.mu.Lock()
		taken := w.next > g1
		w.mu.Unlock()
		if taken {
			break
		}
		runtime.Gosched()
	}
	g2 := logOne(t, w, "open")
	res := make(chan error, 3)
	for _, g := range []uint64{g2, g2, g1} {
		go func() { res <- w.wait(g) }()
	}
	crashed := make(chan struct{})
	go func() { w.crash(); close(crashed) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-res:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter on the open group: %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("crash left a waiter on the open group blocked")
		}
	}
	w.ioMu.Unlock()
	if err := <-res; err != nil {
		t.Fatalf("waiter on the group being written: %v, want its write's outcome (nil)", err)
	}
	<-crashed
	if err := w.lockAppend(); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after crash: %v, want ErrClosed", err)
	}
}

// A periodic fsync does not hold up commit groups: a group written while
// the background fsync of an earlier one is still in flight completes
// without waiting for it.
func TestWALCommitsDuringPeriodicFsync(t *testing.T) {
	w, err := openWAL(t.TempDir(), 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	inSync, release := make(chan struct{}), make(chan struct{})
	var first, freed sync.Once
	unblock := func() { freed.Do(func() { close(release) }) }
	defer unblock()
	w.syncHook = func() {
		first.Do(func() {
			close(inSync)
			<-release
		})
	}
	if err := w.wait(logOne(t, w, "a")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inSync:
	case <-time.After(10 * time.Second):
		t.Fatal("the periodic fsync never started")
	}
	done := make(chan error, 1)
	g := logOne(t, w, "b")
	go func() { done <- w.wait(g) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("group written during the fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a commit group waited for the periodic fsync")
	}
	unblock()
	if err := w.sync(); err != nil {
		t.Fatalf("sync after the fsync finished: %v", err)
	}
}
