package workload

import (
	"math"
	"testing"
	"testing/quick"

	"c3/internal/sim"
)

func TestZipfianInRangeProperty(t *testing.T) {
	r := sim.RNG(1, 1)
	f := func(n16 uint16) bool {
		n := uint64(n16)%1000 + 1
		z := NewZipfian(n, 0.99)
		for i := 0; i < 100; i++ {
			if z.Next(r) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	const n = 10000
	z := NewZipfian(n, 0.99)
	r := sim.RNG(2, 2)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	// Item 0 must be the hottest and carry a few percent of all draws.
	for i := 1; i < n; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("item %d (%d draws) hotter than item 0 (%d)", i, counts[i], counts[0])
		}
	}
	frac0 := float64(counts[0]) / draws
	if frac0 < 0.05 || frac0 > 0.15 {
		t.Fatalf("hottest item fraction = %v, want ~0.10 for zipf(0.99, 10k)", frac0)
	}
	// Top-10 items should dominate ~25%+ of accesses.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if f := float64(top) / draws; f < 0.2 {
		t.Fatalf("top-10 fraction = %v, want > 0.2", f)
	}
}

func TestZipfianThetaControlsSkew(t *testing.T) {
	r := sim.RNG(3, 3)
	frac := func(theta float64) float64 {
		z := NewZipfian(1000, theta)
		hot := 0
		for i := 0; i < 50000; i++ {
			if z.Next(r) == 0 {
				hot++
			}
		}
		return float64(hot) / 50000
	}
	if frac(0.5) >= frac(0.99) {
		t.Fatal("higher theta should concentrate more mass on item 0")
	}
}

func TestZipfianPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { NewZipfian(0, 0.99) },
		"theta=0": func() { NewZipfian(10, 0) },
		"theta=1": func() { NewZipfian(10, 1) },
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

func TestScrambledSpreadsHotKeys(t *testing.T) {
	const n = 1000
	s := NewScrambled(n, 0.99)
	r := sim.RNG(4, 4)
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := s.Next(r)
		if v >= n {
			t.Fatalf("scrambled value %d out of range", v)
		}
		counts[v]++
	}
	// The hottest item must NOT be item 0 systematically — scrambling
	// relocates it. Find the argmax and verify the distribution is still
	// skewed (one item dominates).
	maxI, maxC := 0, 0
	for i, c := range counts {
		if c > maxC {
			maxI, maxC = i, c
		}
	}
	if float64(maxC)/100000 < 0.05 {
		t.Fatalf("scrambling destroyed the skew: max fraction %v", float64(maxC)/100000)
	}
	_ = maxI // location is arbitrary; only skew matters
}

func TestScrambledDeterministicMapping(t *testing.T) {
	// The same underlying item must always scramble to the same slot.
	a, b := fnv64(12345), fnv64(12345)
	if a != b {
		t.Fatal("fnv64 not deterministic")
	}
	if fnv64(1) == fnv64(2) {
		t.Fatal("fnv64 collides on adjacent inputs (suspicious)")
	}
}

func TestUniform(t *testing.T) {
	u := NewUniform(100)
	r := sim.RNG(5, 5)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[u.Next(r)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("uniform skew at %d: %d/100000", i, c)
		}
	}
}

func TestUniformPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewUniform(0)
}

func TestMixFractions(t *testing.T) {
	r := sim.RNG(6, 6)
	for _, m := range []Mix{ReadHeavy, ReadOnly, UpdateHeavy} {
		reads := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if m.Choose(r) == OpRead {
				reads++
			}
		}
		got := float64(reads) / n
		if math.Abs(got-m.ReadFrac) > 0.01 {
			t.Fatalf("%s: read fraction %v, want %v", m.Name, got, m.ReadFrac)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "READ" || OpUpdate.String() != "UPDATE" ||
		OpMultiGet.String() != "MULTIGET" {
		t.Fatal("op names wrong")
	}
}

func TestMixMultiGetFraction(t *testing.T) {
	m := ReadHeavy
	m.MultiFrac = 0.3
	r := sim.RNG(7, 7)
	const n = 100000
	var reads, multis, updates int
	for i := 0; i < n; i++ {
		switch m.Choose(r) {
		case OpRead:
			reads++
		case OpMultiGet:
			multis++
		default:
			updates++
		}
	}
	if got := float64(updates) / n; math.Abs(got-(1-m.ReadFrac)) > 0.01 {
		t.Fatalf("update fraction %v, want %v", got, 1-m.ReadFrac)
	}
	gotMulti := float64(multis) / float64(reads+multis)
	if math.Abs(gotMulti-0.3) > 0.02 {
		t.Fatalf("multi-get fraction of reads = %v, want 0.3", gotMulti)
	}
}

// TestMixZeroMultiFracPreservesSequences: MultiFrac 0 must draw no extra
// randomness, so existing seeded workloads replay the exact same op streams.
func TestMixZeroMultiFracPreservesSequences(t *testing.T) {
	r1 := sim.RNG(8, 8)
	r2 := sim.RNG(8, 8)
	for i := 0; i < 10000; i++ {
		want := OpUpdate
		if r2.Float64() < ReadHeavy.ReadFrac {
			want = OpRead // one draw per op: the single-key stream
		}
		if got := ReadHeavy.Choose(r1); got != want {
			t.Fatalf("op %d = %v, want %v: a single-key mix drew extra randomness", i, got, want)
		}
	}
}

func TestGeometricBatchMeanAndBounds(t *testing.T) {
	r := sim.RNG(9, 9)
	g := GeometricBatch{Mean: 16}
	const n = 200000
	total := 0
	for i := 0; i < n; i++ {
		k := g.Keys(r)
		if k < 1 {
			t.Fatalf("batch size %d < 1", k)
		}
		total += k
	}
	if mean := float64(total) / n; math.Abs(mean-16) > 0.5 {
		t.Fatalf("geometric mean = %v, want ≈16", mean)
	}
	capped := GeometricBatch{Mean: 64, Max: 8}
	for i := 0; i < 1000; i++ {
		if k := capped.Keys(r); k > 8 {
			t.Fatalf("batch size %d exceeds Max 8", k)
		}
	}
	if (GeometricBatch{Mean: 0.5}).Keys(r) != 1 {
		t.Fatal("sub-1 mean must clamp to 1")
	}
}

func TestFixedSize(t *testing.T) {
	if FixedSize(1024).Size(nil) != 1024 {
		t.Fatal("fixed size wrong")
	}
}

func TestZipfianFieldsBounds(t *testing.T) {
	zf := NewZipfianFields(10, 2048)
	r := sim.RNG(7, 7)
	short := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		sz := zf.Size(r)
		if sz < 10 || sz > 2048 {
			t.Fatalf("record size %d outside [10, 2048]", sz)
		}
		if sz < 512 {
			short++
		}
	}
	// Zipfian field lengths favour short values: most records stay under
	// a quarter of the 2 KB cap.
	if float64(short)/draws < 0.5 {
		t.Fatalf("sub-512B record fraction = %v, want > 0.5", float64(short)/draws)
	}
}

func TestZipfianFieldsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewZipfianFields(0, 100)
}

func TestKeyFormat(t *testing.T) {
	k := Key(42)
	if len(k) != 4+19 {
		t.Fatalf("key %q has wrong width", k)
	}
	if k[:4] != "user" {
		t.Fatalf("key %q missing prefix", k)
	}
	if Key(1) == Key(2) {
		t.Fatal("distinct items produced identical keys")
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(10_000_000, 0.99)
	r := sim.RNG(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next(r)
	}
}

func BenchmarkScrambledNext(b *testing.B) {
	s := NewScrambled(10_000_000, 0.99)
	r := sim.RNG(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(r)
	}
}
