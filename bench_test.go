// Top-level benchmark harness: one testing.B benchmark per table/figure of
// the paper. Each runs the corresponding experiment from internal/bench at
// Quick scale and reports its headline metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates (a scaled version of) the paper's
// entire evaluation. The full-scale runs live behind `cmd/c3bench -scale
// full`, which prints each report's paper-vs-measured lines, and the
// ordering assertions in internal/bench/shape_test.go hold the reproduction
// to the paper's shape.
package c3_test

import (
	"testing"

	"c3/internal/bench"
)

func runFigure(b *testing.B, id string) {
	rn, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		rep = rn.Run(bench.Options{Scale: bench.Quick, Seeds: 1})
	}
	for name, v := range rep.Metrics {
		b.ReportMetric(v, name)
	}
}

// Figure 1: LOR vs ideal allocation on the two-server burst example.
func BenchmarkFig01_LORvsIdeal(b *testing.B) { runFigure(b, "fig1") }

// Figure 2: Dynamic Snitching load oscillations.
func BenchmarkFig02_DSOscillation(b *testing.B) { runFigure(b, "fig2") }

// Figure 4: linear vs cubic scoring functions.
func BenchmarkFig04_ScoringFunctions(b *testing.B) { runFigure(b, "fig4") }

// Figure 5: cubic rate growth curve and its three regions.
func BenchmarkFig05_CubicCurve(b *testing.B) { runFigure(b, "fig5") }

// Figure 6: latency profile (mean/median/95/99/99.9), C3 vs DS, 3 workloads.
func BenchmarkFig06_LatencyProfile(b *testing.B) { runFigure(b, "fig6") }

// Figure 7: read throughput, C3 vs DS.
func BenchmarkFig07_Throughput(b *testing.B) { runFigure(b, "fig7") }

// Figure 8: load distribution on the most heavily utilized node.
func BenchmarkFig08_LoadConditioning(b *testing.B) { runFigure(b, "fig8") }

// Figure 9: per-node load versus time.
func BenchmarkFig09_LoadVsTime(b *testing.B) { runFigure(b, "fig9") }

// Figure 10: degradation when generators increase 120 → 210.
func BenchmarkFig10_HigherUtilization(b *testing.B) { runFigure(b, "fig10") }

// Figure 11: dynamic workload change (update-heavy wave joins mid-run).
func BenchmarkFig11_DynamicWorkload(b *testing.B) { runFigure(b, "fig11") }

// Figure 12: SSD-backed cluster.
func BenchmarkFig12_SSD(b *testing.B) { runFigure(b, "fig12") }

// §5 text: skewed (Zipfian) record sizes.
func BenchmarkExpSkewedRecords(b *testing.B) { runFigure(b, "skew") }

// §5 text: speculative retries atop DS degrade latency.
func BenchmarkExpSpeculativeRetry(b *testing.B) { runFigure(b, "spec") }

// Figure 13: sending-rate adaptation and backpressure trace.
func BenchmarkFig13_RateAdaptation(b *testing.B) { runFigure(b, "fig13") }

// Figure 14: fluctuation-interval sweep (§6 simulations).
func BenchmarkFig14_FluctuationSweep(b *testing.B) { runFigure(b, "fig14") }

// Figure 15: demand-skew sweep (§6 simulations).
func BenchmarkFig15_DemandSkew(b *testing.B) { runFigure(b, "fig15") }

// Ablation: scoring exponent b ∈ {1,2,3,4}.
func BenchmarkAblationExponent(b *testing.B) { runFigure(b, "ablate-b") }

// Ablation: concurrency compensation on/off.
func BenchmarkAblationConcurrencyComp(b *testing.B) { runFigure(b, "ablate-comp") }

// Ablation: ranking vs rate control.
func BenchmarkAblationRateControl(b *testing.B) { runFigure(b, "ablate-rate") }

// Ablation: the §6 dismissed selectors.
func BenchmarkAblationExtraSelectors(b *testing.B) { runFigure(b, "ablate-extra") }

// Ablation: the paper's literal rate-decrease rule vs the robust variant.
func BenchmarkAblationDecreaseRule(b *testing.B) { runFigure(b, "ablate-decrease") }

// Extension (§7): token-aware clients.
func BenchmarkExtTokenAware(b *testing.B) { runFigure(b, "ext-token") }

// Extension (§7): quorum reads / strong consistency.
func BenchmarkExtQuorumReads(b *testing.B) { runFigure(b, "ext-quorum") }

// Extension (§8): speculative retries atop C3.
func BenchmarkExtSpecRetryAtopC3(b *testing.B) { runFigure(b, "ext-spec") }
