// Package bench is the experiment harness: one runner per table/figure of
// the paper, each regenerating the corresponding rows/series on this
// repository's substrates (internal/cassim for §5, internal/queuesim for §6,
// closed-form evaluation for the illustrative figures). cmd/c3bench and the
// top-level benchmarks (bench_test.go) both drive these runners; each
// report prints its paper-vs-measured lines, and shape_test.go asserts the
// paper's orderings.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment fidelity.
type Scale int

// Scales: Quick for unit/bench runs (seconds), Medium for the default
// cmd/c3bench run (minutes), Full for paper-scale runs.
const (
	Quick Scale = iota
	Medium
	Full
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick":
		return Quick, nil
	case "medium", "":
		return Medium, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("bench: unknown scale %q (quick|medium|full)", s)
}

// Options configures a harness run.
type Options struct {
	Scale Scale
	Seeds int // number of repetitions; 0 takes a scale-based default
	// ElasticJSONPath, when non-empty, makes the elastic runner also write
	// its machine-readable result (BENCH_elastic.json) to this path.
	ElasticJSONPath string
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	switch o.Scale {
	case Full:
		return 5 // the paper repeats every measurement five times
	case Medium:
		return 3
	default:
		return 1
	}
}

// clusterOps reports the cassim operation budget for the scale.
func (o Options) clusterOps() int {
	switch o.Scale {
	case Full:
		return 2_000_000
	case Medium:
		return 150_000
	default:
		return 40_000
	}
}

// simRequests reports the queuesim request budget for the scale.
func (o Options) simRequests() int {
	switch o.Scale {
	case Full:
		return 600_000 // the paper's §6 run length
	case Medium:
		return 120_000
	default:
		return 30_000
	}
}

// intervals reports the fluctuation intervals swept (ms).
func (o Options) intervals() []int64 {
	if o.Scale == Quick {
		return []int64{10, 100, 500}
	}
	return []int64{10, 50, 100, 200, 300, 500} // the paper's x-axis
}

// Report is one experiment's regenerated output.
type Report struct {
	ID      string
	Title   string
	Lines   []string
	Metrics map[string]float64
	// Failed marks a runner that could not produce its result (harness
	// error, cluster boot failure). cmd/c3bench exits non-zero when any
	// report failed, so CI smoke runs catch broken experiments.
	Failed bool
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

func (r *Report) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// fail records a fatal runner error.
func (r *Report) fail(err error) {
	r.Failed = true
	r.printf("error: %v", err)
}

// Metric records a named headline number.
func (r *Report) Metric(name string, v float64) { r.Metrics[name] = v }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("-- headline metrics --\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %.3f\n", k, r.Metrics[k])
		}
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) *Report
}

// All enumerates every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "LOR vs ideal allocation (motivating example)", Fig01},
		{"fig2", "Dynamic Snitching load oscillations", Fig02},
		{"fig4", "linear vs cubic scoring functions", Fig04},
		{"fig5", "cubic rate growth curve", Fig05},
		{"fig6", "latency profile C3 vs DS across workloads", Fig06},
		{"fig7", "read throughput C3 vs DS", Fig07},
		{"fig8", "load distribution on the most utilized node", Fig08},
		{"fig9", "load versus time", Fig09},
		{"fig10", "degradation at higher system utilization", Fig10},
		{"fig11", "adaptation to dynamic workload change", Fig11},
		{"fig12", "SSD-backed latency profile", Fig12},
		{"skew", "skewed record sizes (§5 text)", FigSkew},
		{"spec", "speculative retries atop DS (§5 text)", FigSpec},
		{"fig13", "rate adaptation and backpressure trace", Fig13},
		{"fig14", "fluctuation-interval sweep (§6)", Fig14},
		{"fig15", "demand-skew sweep (§6)", Fig15},
		{"ablate-b", "ablation: scoring exponent b", AblationExponent},
		{"ablate-comp", "ablation: concurrency compensation", AblationConcurrencyComp},
		{"ablate-rate", "ablation: rate control on/off", AblationRateControl},
		{"ablate-extra", "ablation: dismissed selectors (§6)", AblationExtraSelectors},
		{"ablate-decrease", "ablation: literal vs robust decrease rule", AblationDecreaseRule},
		{"ext-token", "extension: token-aware clients (§7)", ExtTokenAware},
		{"ext-quorum", "extension: quorum reads (§7)", ExtQuorum},
		{"ext-spec", "extension: reissues atop C3 (§8)", ExtC3Spec},
		{"elastic", "membership churn: p99 through a live join and decommission", Elastic},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
