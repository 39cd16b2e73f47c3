package core

import (
	"math"
	"sync"
	"testing"
)

func TestRegistryDenseAssignment(t *testing.T) {
	r := NewRegistry(7, 3, 9)
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for i, s := range []ServerID{7, 3, 9} {
		if got := r.Index(s); got != i {
			t.Fatalf("Index(%d) = %d, want %d", s, got, i)
		}
		if got := r.ID(i); got != s {
			t.Fatalf("ID(%d) = %d, want %d", i, got, s)
		}
	}
	// Interning is idempotent.
	if got := r.Index(3); got != 1 {
		t.Fatalf("re-Index(3) = %d, want 1", got)
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len after re-intern = %d, want 3", got)
	}
}

func TestRegistryLookupDoesNotIntern(t *testing.T) {
	r := NewRegistry(1)
	if _, ok := r.Lookup(99); ok {
		t.Fatal("Lookup(99) reported an unknown id")
	}
	if r.Len() != 1 {
		t.Fatalf("Lookup interned: Len = %d", r.Len())
	}
	if i, ok := r.Lookup(1); !ok || i != 0 {
		t.Fatalf("Lookup(1) = %d,%v want 0,true", i, ok)
	}
}

func TestRegistrySparseIDs(t *testing.T) {
	// Negative and enormous ids fall back to the sparse map but still get
	// dense indices.
	r := NewRegistry()
	ids := []ServerID{-5, 1 << 30, 0, 42, -1}
	for i, s := range ids {
		if got := r.Index(s); got != i {
			t.Fatalf("Index(%d) = %d, want %d", s, got, i)
		}
	}
	for i, s := range ids {
		if got, ok := r.Lookup(s); !ok || got != i {
			t.Fatalf("Lookup(%d) = %d,%v want %d,true", s, got, ok, i)
		}
	}
}

func TestRegistryDirectSparseBoundaryStable(t *testing.T) {
	// Regression: doubling growth must not push len(direct) past maxDirect,
	// or ids in [maxDirect, len(direct)) land in the sparse map on intern
	// but are reported unknown by the direct-table bounds check — giving
	// the same id a fresh dense index on every call.
	r := NewRegistry()
	r.Index(600000)
	r.Index(700000) // doubling would grow direct to 1.2M > maxDirect without the clamp
	above := ServerID(maxDirect + 75808)
	first := r.Index(above)
	for i := 0; i < 3; i++ {
		if got := r.Index(above); got != first {
			t.Fatalf("Index(%d) unstable: %d then %d", above, first, got)
		}
	}
	if got, ok := r.Lookup(above); !ok || got != first {
		t.Fatalf("Lookup(%d) = %d,%v want %d,true", above, got, ok, first)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestRegistryConcurrentIntern(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Index(ServerID(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != perG {
		t.Fatalf("Len = %d, want %d", got, perG)
	}
	// Every id maps to a unique index in [0, perG).
	seen := make([]bool, perG)
	for i := 0; i < perG; i++ {
		idx := r.Index(ServerID(i))
		if idx < 0 || idx >= perG || seen[idx] {
			t.Fatalf("bad index %d for id %d", idx, i)
		}
		seen[idx] = true
	}
}

func TestRegistryGroupIndex(t *testing.T) {
	r := NewRegistry()
	g1 := []ServerID{1, 2, 3}
	g2 := []ServerID{2, 3, 4}
	g3 := []ServerID{3, 2, 1} // same members as g1, different order
	i1 := r.GroupIndex(g1)
	i2 := r.GroupIndex(g2)
	i3 := r.GroupIndex(g3)
	if i1 == i2 || i1 == i3 || i2 == i3 {
		t.Fatalf("distinct groups share an index: %d %d %d", i1, i2, i3)
	}
	if got := r.GroupIndex([]ServerID{1, 2, 3}); got != i1 {
		t.Fatalf("re-intern of g1 = %d, want %d", got, i1)
	}
	if r.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", r.Groups())
	}
	// Group members were interned as servers too.
	for _, s := range []ServerID{1, 2, 3, 4} {
		if _, ok := r.Lookup(s); !ok {
			t.Fatalf("member %d not interned", s)
		}
	}
}

func TestReadAccessorsDoNotIntern(t *testing.T) {
	// Probing an unknown server through a read-only accessor must not grow
	// the shared registry (a metrics loop scraping stale IDs would bloat
	// every ranker and client of the cluster view).
	reg := NewRegistry(0, 1, 2)
	c3r := NewCubicRanker(RankerConfig{Seed: 1, Registry: reg})
	lor := NewLOR(reg, 1)
	tc := NewTwoChoice(reg, 1)
	ds := NewDynamicSnitch(SnitchConfig{Seed: 1, Registry: reg})
	const ghost = ServerID(999)
	if got := c3r.Outstanding(ghost); got != 0 {
		t.Errorf("C3 Outstanding(ghost) = %v", got)
	}
	if got := c3r.Signals(ghost).QHat; got != 1 {
		t.Errorf("C3 Signals(ghost).QHat = %v, want 1", got)
	}
	if got := c3r.Score(ghost, 0); !math.IsInf(got, -1) {
		t.Errorf("C3 Score(ghost) = %v, want -Inf", got)
	}
	if got := lor.Outstanding(ghost); got != 0 {
		t.Errorf("LOR Outstanding(ghost) = %v", got)
	}
	if got := tc.Outstanding(ghost); got != 0 {
		t.Errorf("2C Outstanding(ghost) = %v", got)
	}
	if got := ds.Score(ghost); got != 0 {
		t.Errorf("DS Score(ghost) = %v", got)
	}
	if got := ds.Severity(ghost); got != 0 {
		t.Errorf("DS Severity(ghost) = %v", got)
	}
	if got := reg.Len(); got != 3 {
		t.Fatalf("read accessors interned: Len = %d, want 3", got)
	}
}

func TestRegistryGroupInternKeepsCopy(t *testing.T) {
	r := NewRegistry()
	g := []ServerID{5, 6}
	i := r.GroupIndex(g)
	g[0] = 99 // caller mutates its slice; the interned group must not change
	if got := r.GroupIndex([]ServerID{5, 6}); got != i {
		t.Fatalf("interned group changed with caller's slice: %d != %d", got, i)
	}
}
