package bench

import "testing"

// These tests assert the *shape* of the paper's results — who wins and in
// which direction — at Quick scale with a couple of seeds. Absolute values
// are what cmd/c3bench's reports print; ordering violations here mean the
// reproduction is broken.

func opts() Options { return Options{Scale: Quick, Seeds: 2} }

// shapeTest marks a shape assertion: parallel (the simulations are
// independent) and skipped under -short, where the repo-wide race sweep
// runs every package and a multi-second simulation times the race
// detector's overhead is pure latency. The plain Test step and the
// dedicated CI steps still run them in full.
func shapeTest(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-second simulation; skipped under -short")
	}
	t.Parallel()
}

func TestShapeFig02_DSOscillatesMore(t *testing.T) {
	shapeTest(t)
	rep := Fig02(opts())
	if rep.Metrics["oscillation_DS"] <= rep.Metrics["oscillation_C3"] {
		t.Fatalf("DS should oscillate more than C3: %v", rep.Metrics)
	}
}

func TestShapeFig06_C3ShrinksTailGap(t *testing.T) {
	shapeTest(t)
	rep := Fig06(opts())
	// The headline: p99.9−p50 is larger under DS for the read-heavy mix.
	if rep.Metrics["tailgap_ratio_Read-Heavy"] <= 1.2 {
		t.Fatalf("DS tail gap should exceed C3's by a clear margin: %v",
			rep.Metrics["tailgap_ratio_Read-Heavy"])
	}
}

func TestShapeFig07_C3RaisesThroughput(t *testing.T) {
	shapeTest(t)
	rep := Fig07(opts())
	for _, mix := range []string{"Read-Heavy", "Read-Only", "Update-Heavy"} {
		if rep.Metrics["throughput_gain_pct_"+mix] <= 0 {
			t.Fatalf("C3 should raise throughput for %s: %+v", mix, rep.Metrics)
		}
	}
}

func TestShapeFig08_C3ConditionsLoad(t *testing.T) {
	shapeTest(t)
	rep := Fig08(opts())
	if rep.Metrics["range_ratio_DS_over_C3"] <= 1 {
		t.Fatalf("DS hottest-node load range should exceed C3's: %v", rep.Metrics)
	}
}

func TestShapeFig12_SSDKeepsTheGap(t *testing.T) {
	shapeTest(t)
	rep := Fig12(opts())
	if rep.Metrics["ssd_p999_ratio"] <= 1 {
		t.Fatalf("DS p99.9 should exceed C3's on SSDs too: %v", rep.Metrics)
	}
	if rep.Metrics["ssd_throughput_gain_pct"] <= 0 {
		t.Fatalf("C3 should raise SSD throughput: %v", rep.Metrics)
	}
}

func TestShapeFig13_RateDropsUnderDegradation(t *testing.T) {
	shapeTest(t)
	rep := Fig13(opts())
	if rep.Metrics["srate_degraded"] >= rep.Metrics["srate_healthy"] {
		t.Fatalf("srate toward the degraded node should drop: %v", rep.Metrics)
	}
}

func TestShapeFig14_Orderings(t *testing.T) {
	shapeTest(t)
	rep := Fig14(opts())
	// At T=500ms, 70% utilization: LOR worse than C3, RR worse than LOR,
	// C3 above but within sight of the oracle.
	if rep.Metrics["lor_over_c3_500ms_u70_c150"] <= 1 {
		t.Fatalf("LOR should trail C3 at T=500ms: %v", rep.Metrics)
	}
	if rep.Metrics["rr_over_c3_500ms_u70_c150"] <= rep.Metrics["lor_over_c3_500ms_u70_c150"] {
		t.Fatalf("RR should be the worst performer: %v", rep.Metrics)
	}
	if rep.Metrics["c3_over_ora_500ms_u70_c150"] < 1 {
		t.Fatalf("the oracle should not lose to C3: %v", rep.Metrics)
	}
	// Low utilization: C3 plateaus while LOR keeps degrading.
	if rep.Metrics["c3_late_over_mid_u45_c150"] >= rep.Metrics["lor_late_over_mid_u45_c150"] {
		t.Fatalf("C3 should plateau at low utilization while LOR degrades: %v", rep.Metrics)
	}
}

func TestShapeFig15_SkewDoesNotFlipOrdering(t *testing.T) {
	shapeTest(t)
	rep := Fig15(opts())
	// At mild skew (20% of clients), the hot clients' outstanding counts
	// make C3 behave LOR-like; it must not lose materially. At heavy
	// skew (50%) the paper's clear win must hold.
	if rep.Metrics["lor_over_c3_500ms_s20_c150"] <= 0.85 {
		t.Fatalf("C3 materially behind LOR under 20%% demand skew: %v", rep.Metrics)
	}
	if rep.Metrics["lor_over_c3_500ms_s50_c150"] <= 1 {
		t.Fatalf("C3 should beat LOR under 50%% demand skew: %v", rep.Metrics)
	}
}

func TestShapeAblations(t *testing.T) {
	shapeTest(t)
	comp := AblationConcurrencyComp(opts())
	if comp.Metrics["penalty"] <= 1 {
		t.Fatalf("removing concurrency compensation should hurt: %v", comp.Metrics)
	}
	rate := AblationRateControl(opts())
	if rate.Metrics["p99_RR"] <= rate.Metrics["p99_C3"] {
		t.Fatalf("rate control alone (RR) should trail full C3: %v", rate.Metrics)
	}
	dec := AblationDecreaseRule(opts())
	if dec.Metrics["literal_penalty"] <= 1 {
		t.Fatalf("the literal decrease rule should inflate the tail: %v", dec.Metrics)
	}
}

func TestShapeExtensions(t *testing.T) {
	shapeTest(t)
	tok := ExtTokenAware(opts())
	// Token awareness saves a hop on self-selection but concentrates
	// coordination; it must at least not hurt materially.
	if tok.Metrics["p99_improvement"] <= 0.85 {
		t.Fatalf("token awareness hurt p99 materially: %v", tok.Metrics)
	}
	q := ExtQuorum(opts())
	if q.Metrics["gain_cl2"] >= q.Metrics["gain_cl1"] {
		t.Fatalf("C3's advantage should shrink under quorum reads: gains %v", q.Metrics)
	}
}
