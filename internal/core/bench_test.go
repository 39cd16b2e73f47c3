package core

// Microbenchmarks for the selection hot path: Rank across all rankers, the
// Best top-1 fast path, Client.Pick with and without rate control, and the
// OnResponseN feedback path. CI runs a short -bench=BenchmarkRank smoke so
// regressions here fail loudly; DESIGN.md records the before/after numbers
// versus the seed's map-based implementation.

import (
	"testing"
	"time"

	"c3/internal/ratelimit"
)

func benchGroup(n int) []ServerID {
	g := make([]ServerID, n)
	for i := range g {
		g[i] = ServerID(i)
	}
	return g
}

func benchRank(b *testing.B, r Ranker, n int) {
	group := benchGroup(n)
	warmRanker(r, group)
	dst := make([]ServerID, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.Rank(dst, group, int64(i))
	}
	_ = dst
}

// BenchmarkRankC3 is the headline number: one C3 ranking of a replica group
// at the paper's replication factor of 3.
func BenchmarkRankC3(b *testing.B) {
	benchRank(b, NewCubicRanker(RankerConfig{Seed: 1}), 3)
}

// BenchmarkRankC3Wide ranks a 10-replica group (multi-DC / token-aware
// scenarios where groups exceed the paper's RF).
func BenchmarkRankC3Wide(b *testing.B) {
	benchRank(b, NewCubicRanker(RankerConfig{Seed: 1}), 10)
}

// BenchmarkRankC3Pow exercises the math.Pow fallback used by the exponent
// ablation sweeps (b ≠ 3).
func BenchmarkRankC3Pow(b *testing.B) {
	benchRank(b, NewCubicRanker(RankerConfig{Seed: 1, Exponent: 2.5}), 3)
}

func BenchmarkRankLOR(b *testing.B) {
	benchRank(b, NewLOR(nil, 1), 3)
}

func BenchmarkRankRR(b *testing.B) {
	benchRank(b, NewRoundRobin(nil), 3)
}

func BenchmarkRankTwoChoice(b *testing.B) {
	benchRank(b, NewTwoChoice(nil, 1), 3)
}

func BenchmarkRankLRT(b *testing.B) {
	benchRank(b, NewLeastResponseTime(nil, 0.9, 1), 3)
}

func BenchmarkRankWRND(b *testing.B) {
	benchRank(b, NewWeightedRandom(nil, 0.9, 1), 3)
}

func BenchmarkRankSnitch(b *testing.B) {
	r := NewDynamicSnitch(SnitchConfig{Seed: 1})
	group := benchGroup(3)
	warmRanker(r, group)
	dst := make([]ServerID, len(group))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fixed timestamp: measures the interval-frozen ranking itself,
		// not the 100 ms recompute.
		dst = r.Rank(dst, group, 2)
	}
}

// BenchmarkBestC3 is the top-1 fast path Client.Pick rides.
func BenchmarkBestC3(b *testing.B) {
	r := NewCubicRanker(RankerConfig{Seed: 1})
	group := benchGroup(3)
	warmRanker(r, group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Best(group, int64(i))
	}
}

func benchPick(b *testing.B, cfg ClientConfig) {
	c := NewClient(NewCubicRanker(RankerConfig{Seed: 1}), cfg)
	group := benchGroup(3)
	fb := Feedback{QueueSize: 1, ServiceTime: time.Millisecond}
	for _, s := range group {
		c.OnResponse(s, fb, 2*time.Millisecond, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, ok, _ := c.Pick(group, int64(i))
		if !ok {
			b.Fatal("pick failed")
		}
		c.OnResponse(s, fb, 2*time.Millisecond, int64(i))
	}
}

// BenchmarkPickNoRate is one full select/feedback cycle with ranking only.
func BenchmarkPickNoRate(b *testing.B) {
	benchPick(b, ClientConfig{})
}

// BenchmarkPickRateControl is the complete C3 client hot path: rank, token
// acquire, send accounting and feedback with cubic rate adaptation.
func BenchmarkPickRateControl(b *testing.B) {
	benchPick(b, ClientConfig{
		RateControl: true,
		Rate:        ratelimit.Config{InitialRate: 1 << 30, MaxRate: 1 << 30},
	})
}

// BenchmarkOnResponseC3 isolates the feedback EWMA fold.
func BenchmarkOnResponseC3(b *testing.B) {
	r := NewCubicRanker(RankerConfig{Seed: 1})
	group := benchGroup(3)
	warmRanker(r, group)
	fb := Feedback{QueueSize: 2, ServiceTime: time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OnResponseN(group[i%3], 1, fb, 2*time.Millisecond, int64(i))
	}
}

// BenchmarkOnResponseClient adds the client lock and the cubic rate
// controller step on top of the ranker feedback fold.
func BenchmarkOnResponseClient(b *testing.B) {
	c := NewClient(NewCubicRanker(RankerConfig{Seed: 1}), ClientConfig{
		RateControl: true,
		Rate:        ratelimit.Config{InitialRate: 1 << 30, MaxRate: 1 << 30},
	})
	group := benchGroup(3)
	fb := Feedback{QueueSize: 2, ServiceTime: time.Millisecond}
	for _, s := range group {
		c.OnResponse(s, fb, 2*time.Millisecond, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnResponse(group[i%3], fb, 2*time.Millisecond, int64(i))
	}
}
