package core

import (
	"testing"
	"time"
)

func feedLatency(d *DynamicSnitch, s ServerID, rtt time.Duration, n int, now int64) {
	for i := 0; i < n; i++ {
		d.OnResponseN(s, 1, Feedback{}, rtt, now)
	}
}

func TestSnitchPrefersLowLatencyPeer(t *testing.T) {
	d := NewDynamicSnitch(SnitchConfig{Seed: 1})
	feedLatency(d, 1, 2*time.Millisecond, 10, 0)
	feedLatency(d, 2, 40*time.Millisecond, 10, 0)
	d.Rank(nil, []ServerID{1, 2}, 0)               // starts interval clock
	got := d.Rank(nil, []ServerID{1, 2}, 150*msec) // past 100ms → recompute
	if got[0] != 1 {
		t.Fatalf("rank = %v, want low-latency peer 1 first", got)
	}
	if d.Score(1) >= d.Score(2) {
		t.Fatalf("score(1)=%v should be < score(2)=%v", d.Score(1), d.Score(2))
	}
}

func TestSnitchRankingFrozenBetweenIntervals(t *testing.T) {
	d := NewDynamicSnitch(SnitchConfig{Seed: 2})
	feedLatency(d, 1, 2*time.Millisecond, 10, 0)
	feedLatency(d, 2, 40*time.Millisecond, 10, 0)
	d.Rank(nil, []ServerID{1, 2}, 0)
	first := d.Rank(nil, []ServerID{1, 2}, 150*msec)
	lead := first[0]
	// Peer 1's latency explodes, but within the same interval the ranking
	// must not react — the §2.3 staleness weakness.
	feedLatency(d, lead, 500*time.Millisecond, 50, 160*msec)
	got := d.Rank(nil, []ServerID{1, 2}, 200*msec) // still inside interval
	if got[0] != lead {
		t.Fatalf("ranking changed mid-interval: %v", got)
	}
	// After the next tick it reacts.
	got = d.Rank(nil, []ServerID{1, 2}, 260*msec)
	if got[0] == lead {
		t.Fatalf("ranking did not react after recompute: %v", got)
	}
}

func TestSnitchSeverityDominatesLatency(t *testing.T) {
	d := NewDynamicSnitch(SnitchConfig{Seed: 3})
	// Peer 1 is 10× faster by latency but reports 5% iowait.
	feedLatency(d, 1, 2*time.Millisecond, 10, 0)
	feedLatency(d, 2, 20*time.Millisecond, 10, 0)
	d.SetSeverity(1, 0.05)
	d.Rank(nil, []ServerID{1, 2}, 0)
	got := d.Rank(nil, []ServerID{1, 2}, 150*msec)
	if got[0] != 2 {
		t.Fatalf("rank = %v: 5%% iowait should outweigh a 10× latency edge", got)
	}
}

func TestSnitchSeverityClampedNonNegative(t *testing.T) {
	d := NewDynamicSnitch(SnitchConfig{Seed: 4})
	d.SetSeverity(1, -3)
	if d.Severity(1) != 0 {
		t.Fatalf("severity = %v, want clamp to 0", d.Severity(1))
	}
}

func TestSnitchHistoryReset(t *testing.T) {
	cfg := SnitchConfig{Seed: 5, ResetInterval: 1000 * msec}
	d := NewDynamicSnitch(cfg)
	feedLatency(d, 1, 50*time.Millisecond, 20, 0)
	feedLatency(d, 2, 1*time.Millisecond, 20, 0)
	d.Rank(nil, []ServerID{1, 2}, 0)
	d.Rank(nil, []ServerID{1, 2}, 150*msec)
	if d.Score(1) <= d.Score(2) {
		t.Fatal("expected peer 1 to score worse before reset")
	}
	// After the reset interval, histories flush; with no samples both
	// latency scores drop to 0.
	d.Rank(nil, []ServerID{1, 2}, 1200*msec)
	if d.Score(1) != 0 || d.Score(2) != 0 {
		t.Fatalf("scores after reset = %v, %v; want 0, 0", d.Score(1), d.Score(2))
	}
}

func TestSnitchRingBufferBounds(t *testing.T) {
	d := NewDynamicSnitch(SnitchConfig{Seed: 6, HistorySize: 4})
	// 3 slow samples then 4 fast ones: ring keeps only the last 4.
	feedLatency(d, 1, 100*time.Millisecond, 3, 0)
	feedLatency(d, 1, 1*time.Millisecond, 4, 0)
	feedLatency(d, 2, 10*time.Millisecond, 4, 0)
	d.Rank(nil, []ServerID{1, 2}, 0)
	got := d.Rank(nil, []ServerID{1, 2}, 150*msec)
	if got[0] != 1 {
		t.Fatalf("rank = %v; old slow samples should have been evicted", got)
	}
}

func TestSnitchDeterministicWithinInterval(t *testing.T) {
	// Two snitches with identical observations must produce the identical
	// frozen ranking — that synchronization is what herds coordinators.
	mk := func(seed uint64) []ServerID {
		d := NewDynamicSnitch(SnitchConfig{Seed: seed})
		feedLatency(d, 1, 10*time.Millisecond, 10, 0)
		feedLatency(d, 2, 5*time.Millisecond, 10, 0)
		feedLatency(d, 3, 20*time.Millisecond, 10, 0)
		d.Rank(nil, []ServerID{1, 2, 3}, 0)
		return d.Rank(nil, []ServerID{1, 2, 3}, 150*msec)
	}
	a, b := mk(1), mk(999) // different seeds: ranking must still agree
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snitch rankings diverge: %v vs %v", a, b)
		}
	}
}

func TestSnitchDefaults(t *testing.T) {
	cfg := SnitchConfig{}.withDefaults()
	if cfg.UpdateInterval != 100*msec {
		t.Fatalf("UpdateInterval = %d, want 100ms", cfg.UpdateInterval)
	}
	if cfg.ResetInterval != 600*1000*msec {
		t.Fatalf("ResetInterval = %d, want 10min", cfg.ResetInterval)
	}
	if cfg.SeverityWeight != 100 {
		t.Fatalf("SeverityWeight = %v, want 100 (two orders of magnitude)", cfg.SeverityWeight)
	}
}
