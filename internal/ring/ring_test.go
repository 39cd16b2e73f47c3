package ring

import (
	"fmt"
	"testing"
	"testing/quick"

	"c3/internal/core"
	"c3/internal/sim"
	"c3/internal/workload"
)

func TestMurmurDeterministic(t *testing.T) {
	a1, a2 := Murmur3_x64_128([]byte("hello, world"), 0)
	b1, b2 := Murmur3_x64_128([]byte("hello, world"), 0)
	if a1 != b1 || a2 != b2 {
		t.Fatal("murmur3 not deterministic")
	}
	c1, c2 := Murmur3_x64_128([]byte("hello, world!"), 0)
	if a1 == c1 && a2 == c2 {
		t.Fatal("murmur3 collides on near-identical inputs")
	}
	d1, d2 := Murmur3_x64_128([]byte("hello, world"), 1)
	if a1 == d1 && a2 == d2 {
		t.Fatal("seed has no effect")
	}
}

func TestMurmurKnownVectors(t *testing.T) {
	// Reference vectors from the canonical C++ implementation
	// (MurmurHash3_x64_128, seed 0).
	h1, h2 := Murmur3_x64_128(nil, 0)
	if h1 != 0 || h2 != 0 {
		t.Fatalf("murmur3(\"\") = %x,%x; want 0,0", h1, h2)
	}
}

func TestMurmurAllTailLengths(t *testing.T) {
	// Exercise every tail-switch arm: lengths 0..32. Outputs must be
	// pairwise distinct and stable.
	seen := map[[2]uint64]int{}
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for n := 0; n <= 32; n++ {
		h1, h2 := Murmur3_x64_128(data[:n], 42)
		k := [2]uint64{h1, h2}
		if prev, dup := seen[k]; dup {
			t.Fatalf("length %d collides with length %d", n, prev)
		}
		seen[k] = n
	}
}

func TestMurmurAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := []byte("the quick brown fox jumps over the lazy dog")
	h1a, _ := Murmur3_x64_128(base, 0)
	mod := append([]byte(nil), base...)
	mod[0] ^= 1
	h1b, _ := Murmur3_x64_128(mod, 0)
	diff := h1a ^ h1b
	bits := 0
	for ; diff != 0; diff &= diff - 1 {
		bits++
	}
	if bits < 16 || bits > 48 {
		t.Fatalf("avalanche flipped %d/64 bits, want ~32", bits)
	}
}

func TestRingReplicaCountAndDistinctness(t *testing.T) {
	r := New(15, 3)
	if r.Nodes() != 15 || r.RF() != 3 {
		t.Fatal("ring shape wrong")
	}
	rng := sim.RNG(1, 1)
	for i := 0; i < 1000; i++ {
		key := []byte(workload.Key(rng.Uint64()))
		reps := r.ReplicasFor(key, nil)
		if len(reps) != 3 {
			t.Fatalf("got %d replicas, want 3", len(reps))
		}
		seen := map[core.ServerID]bool{}
		for _, s := range reps {
			if seen[s] {
				t.Fatalf("duplicate replica in %v", reps)
			}
			seen[s] = true
			if int(s) < 0 || int(s) >= 15 {
				t.Fatalf("replica %d out of range", s)
			}
		}
	}
}

func TestRingDeterministicMapping(t *testing.T) {
	r := New(15, 3)
	key := []byte("user0000000000000000042")
	a := r.ReplicasFor(key, nil)
	b := r.ReplicasFor(key, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replica mapping not deterministic")
		}
	}
}

func TestRingReplicasAreRingSuccessors(t *testing.T) {
	// With equal tokens and one token per node, replicas must be
	// consecutive nodes on the ring.
	r := New(10, 3)
	rng := sim.RNG(2, 2)
	for i := 0; i < 200; i++ {
		key := []byte(workload.Key(rng.Uint64()))
		reps := r.ReplicasFor(key, nil)
		for j := 1; j < len(reps); j++ {
			if int(reps[j]) != (int(reps[j-1])+1)%10 {
				t.Fatalf("replicas %v are not ring successors", reps)
			}
		}
	}
}

func TestRingLoadBalance(t *testing.T) {
	// Equal token ranges + murmur keys → near-uniform primary ownership.
	r := New(15, 3)
	counts := make([]int, 15)
	rng := sim.RNG(3, 3)
	const draws = 60000
	var reps []core.ServerID
	for i := 0; i < draws; i++ {
		reps = r.ReplicasFor([]byte(workload.Key(rng.Uint64())), reps[:0])
		counts[reps[0]]++
	}
	want := draws / 15
	for i, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Fatalf("node %d owns %d keys, want ≈%d (±30%%)", i, c, want)
		}
	}
}

func TestRingGroups(t *testing.T) {
	r := New(15, 3)
	groups := r.Groups()
	if len(groups) != 15 {
		t.Fatalf("got %d groups, want 15", len(groups))
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group %v has wrong size", g)
		}
		k := fmt.Sprint(g)
		if seen[k] {
			t.Fatalf("duplicate group %v", g)
		}
		seen[k] = true
	}
}

func TestGroupIndexConsistentWithReplicas(t *testing.T) {
	r := New(15, 3)
	groups := r.Groups()
	rng := sim.RNG(4, 4)
	for i := 0; i < 500; i++ {
		key := []byte(workload.Key(rng.Uint64()))
		tok := Token(key)
		gi := r.GroupIndexFor(tok)
		reps := r.ReplicasForToken(tok, nil)
		g := groups[gi]
		for j := range g {
			if g[j] != reps[j] {
				t.Fatalf("group index %d -> %v, but replicas are %v", gi, g, reps)
			}
		}
	}
}

// A ring with explicit (token, owner) positions: non-uniform ownership.
func TestNewWithTokens(t *testing.T) {
	r := &Ring{tokens: []int64{-100, 0, 100}, owners: []core.ServerID{0, 1, 2}, rf: 2}
	// Token -50 lands on owner of token 0 (node 1), then node 2.
	got := r.ReplicasForToken(-50, nil)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("replicas = %v, want [1 2]", got)
	}
	// Wrap-around: token 101 > max token → wraps to first (node 0).
	got = r.ReplicasForToken(101, nil)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("wrapped replicas = %v, want [0 1]", got)
	}
}

func TestNewWithTokensSkipsDuplicateOwners(t *testing.T) {
	// One node holding two adjacent tokens must not appear twice in a
	// replica set.
	r := &Ring{tokens: []int64{0, 10, 20, 30}, owners: []core.ServerID{0, 0, 1, 2}, rf: 3}
	got := r.ReplicasForToken(-5, nil)
	seen := map[core.ServerID]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate owner in %v", got)
		}
		seen[s] = true
	}
}

func TestRingPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nodes": func() { New(0, 1) },
		"rf>n":       func() { New(3, 4) },
		"rf=0":       func() { New(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: every key maps to exactly RF distinct in-range replicas.
func TestRingCoverageProperty(t *testing.T) {
	r := New(12, 3)
	f := func(key []byte) bool {
		reps := r.ReplicasFor(key, nil)
		if len(reps) != 3 {
			return false
		}
		seen := map[core.ServerID]bool{}
		for _, s := range reps {
			if s < 0 || int(s) >= 12 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReplicasFor(b *testing.B) {
	r := New(15, 3)
	key := []byte("user0000000000000424242")
	dst := make([]core.ServerID, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.ReplicasFor(key, dst)
	}
}

func BenchmarkMurmur1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Murmur3_x64_128(data, 0)
	}
}
