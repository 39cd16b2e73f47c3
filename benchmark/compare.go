package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// calibDrift is how far loadgen.calib_ns_per_kib may differ between two
// sets before a difference is put down to the machine, not the code.
const calibDrift = 0.05

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func (s resultSet) find(workload string, traced bool) *result {
	for _, r := range s.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// compareSets prints, per workload and end-to-end metric, both values, the
// relative change and the bound (endToEnd's, which a test keeps equal to
// BENCHMARK.json's). It exits 1 when a metric of B is worse than A's by more
// than its bound, 2 when the sets do not describe the same measurement.
func compareSets(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <setA/result.json> <setB/result.json>")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", a.Label, b.Label, "change", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a.find(w.Name, false), b.find(w.Name, false)
		if ra == nil || rb == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s missing from a set\n", w.Name)
			return 2
		}
		if !ra.Stamp.comparable(rb.Stamp) {
			fmt.Fprintf(os.Stderr, "benchmark: %s was measured under different configurations or by different benchmark sources:\n  %+v\n  %+v\n",
				w.Name, ra.Stamp, rb.Stamp)
			return 2
		}
		ca, cb := ra.Metrics["loadgen.calib_ns_per_kib"].Value, rb.Metrics["loadgen.calib_ns_per_kib"].Value
		drifted := math.Abs(cb-ca) > calibDrift*ca
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			change := (vb - va) / va
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse <= d.Bound:
			case drifted:
				verdict = "unresolved (machine drift)"
			default:
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.Name, d.Name, va, vb, 100*change, 100*d.Bound, verdict)
		}
		if drifted {
			fmt.Printf("%-14s loadgen.calib_ns_per_kib %.1f vs %.1f: the host ran at different speeds\n", w.Name, ca, cb)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-14s a run was not correct: %v %v\n", w.Name, ra.Reasons, rb.Reasons)
			status = 1
		}
	}
	return status
}
