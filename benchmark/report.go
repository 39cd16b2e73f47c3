package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// decl declares a metric the benchmark prints. BENCHMARK.json repeats these
// lists (a test keeps the two equal); only end-to-end metrics have a Bound.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the store would see. Every workload
// reports every one of them from its untraced run. The bounds are about
// twice the widest spread (quartile distance over the median of ten seeds)
// any workload showed on the shared 2-core host; README.md has the table.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"slo_met_share", "share", "higher", 0.03},
	{"sat_throughput_ops_s", "1/s", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
}

// perLayer are the metrics of single layers (layer = package name), plus
// the generator's own diagnostics. Every workload reports every one of them
// from its traced run; a metric whose layer does no work on a workload
// reads 0 there with n = 0.
var perLayer = []decl{
	{Name: "core.slow_node_read_share", Unit: "share", Better: "lower"},
	{Name: "core.healthy_node_read_share", Unit: "share", Better: "higher"},
	{Name: "core.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "core.backpressure_waits", Unit: "count", Better: "lower"},
	{Name: "core.pick_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "core.pick_allocs", Unit: "count", Better: "lower"},
	{Name: "ratelimit.rate_toward_slow_ops_s", Unit: "1/s", Better: "lower"},
	{Name: "ratelimit.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.replicas_for_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.read_rt_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_rt_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_read_rt_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_rt", Unit: "count", Better: "lower"},
	{Name: "kvstore.hedges_per_100_reads", Unit: "count", Better: "lower"},
	{Name: "kvstore.hedge_win_share", Unit: "share", Better: "higher"},
	{Name: "kvstore.read_repairs", Unit: "count", Better: "lower"},
	{Name: "kvstore.quorum_fails", Unit: "count", Better: "lower"},
	{Name: "kvstore.write_fails", Unit: "count", Better: "lower"},
	{Name: "kvstore.hints_stored", Unit: "count", Better: "lower"},
	{Name: "kvstore.hints_dropped", Unit: "count", Better: "lower"},
	{Name: "kvstore.outstanding_residual", Unit: "count", Better: "lower"},
	{Name: "kvstore.pending_reads_max", Unit: "count", Better: "lower"},
	{Name: "kvstore.write_queue_len_max", Unit: "count", Better: "lower"},
	{Name: "kvstore.stale_reads", Unit: "count", Better: "lower"},
	{Name: "kvstore.stale_version_mismatch", Unit: "count", Better: "lower"},
	{Name: "kvstore.stale_missing_key", Unit: "count", Better: "lower"},
	{Name: "kvstore.resurrected_reads", Unit: "count", Better: "lower"},
	{Name: "kvstore.lost_acked_writes", Unit: "count", Better: "lower"},
	{Name: "kvstore.backend_get_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.backend_set_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.client_hop_us", Unit: "us", Better: "lower"},
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.runs_per_get", Unit: "count", Better: "lower"},
	{Name: "lsm.bloom_skip_share", Unit: "share", Better: "higher"},
	{Name: "lsm.wal_records_per_commit", Unit: "count", Better: "higher"},
	{Name: "lsm.mem_bytes_max", Unit: "bytes", Better: "lower"},
	{Name: "lsm.disk_write_bytes_per_user_byte", Unit: "count", Better: "lower"},
	{Name: "lsm.space_bytes_per_live_byte", Unit: "count", Better: "lower"},
	{Name: "lsm.read_stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.stall_time_share", Unit: "share", Better: "lower"},
	{Name: "lsm.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.get_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.apply_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "lsm.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "resp.decode_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "resp.encode_ns_per_reply", Unit: "ns", Better: "lower"},
	{Name: "resp.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "resp.gateway_self_us", Unit: "us", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.goroutines_max", Unit: "count", Better: "lower"},
	{Name: "runtime.rss_peak_mb", Unit: "mb", Better: "lower"},
	{Name: "loadgen.offered_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.achieved_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.calib_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "loadgen.integrity_errors", Unit: "count", Better: "lower"},
	{Name: "loadgen.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.read_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.read_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.write_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.batch_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "pct", Better: "lower"},
}

// metric is one measured value with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is everything one run (one workload, traced or not) measured.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Reasons   []string          `json:"reasons,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Budget    []string          `json:"budget,omitempty"`
}

func (r *result) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no spelling for them
	}
	r.Metrics[name] = metric{Value: v, N: n}
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// finish attaches units and fills in every declared metric the run did not
// measure. An undeclared name is a bug in the benchmark.
func (r *result) finish() {
	units := make(map[string]string)
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for name, m := range r.Metrics {
		u, ok := units[name]
		if !ok {
			panic("benchmark: undeclared metric " + name)
		}
		m.Unit = u
		r.Metrics[name] = m
	}
	for name, u := range units {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = metric{Unit: u}
		}
	}
}

// printTable writes every metric by name with unit and sample count.
func (r *result) printTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %gs) correct=%v attempted=%d failed=%d\n",
		r.Workload, mode, r.Stamp.Seed, r.Stamp.Seconds, r.Correct, r.Attempted, r.Failed)
	for _, why := range r.Reasons {
		fmt.Fprintf(w, "   INCORRECT: %s\n", why)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if ei != ej {
			return !ei // end-to-end names carry no layer prefix; list them first
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "   %-38s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, line := range r.Budget {
		fmt.Fprintf(w, "   %s\n", line)
	}
}

// driverLine is the contract's last line of standard output: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if r.Traced {
		list = perLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]mv)}
	for _, d := range list {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
