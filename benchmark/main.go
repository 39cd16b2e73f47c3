// Command benchmark is the repository's measurement spine: four named
// workloads against an in-process loopback cluster booted through the
// public kvstore API, a seeded open-loop load generator that checks every
// reply, end-to-end metrics with fixed regression bounds, per-layer metrics
// taken from outside the layers, and a traced run. README.md in this
// directory says why each workload exists and how to read the output.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
//	benchmark run [-label L] [-seed N] [-seconds S]           every workload, untraced and traced
//	benchmark compare <setA> <setB>                           two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

const defaultOut = "benchmark/out"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runSet(os.Args[2:]))
		case "compare":
			os.Exit(compareSets(os.Args[2:]))
		}
	}
	os.Exit(single(os.Args[1:]))
}

// single is one run in this process: the contract the driver calls.
func single(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "the only input to workload generation")
	seconds := fs.Float64("seconds", 20, "measured seconds: fixed-rate phase plus saturation phase")
	trace := fs.Int("trace", 0, "1 = traced run: spans, probes and per-layer metrics")
	label := fs.String("label", "latest", "directory under "+defaultOut+" for the trace file")
	resultPath := fs.String("result", "", "also write the full result as JSON here")
	fs.Parse(args)
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1")
		return 2
	}
	res, err := runOne(w, runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1,
		scratch: ".bench_build", outDir: filepath.Join(defaultOut, *label)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.printTable(os.Stdout)
	if *resultPath != "" {
		if err := writeJSON(*resultPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(res.driverLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// resultSet is what `run` writes and `compare` reads.
type resultSet struct {
	Label   string    `json:"label"`
	Results []*result `json:"results"`
}

// runSet runs every workload untraced and traced, each in a fresh process
// so that heap, GC state and RSS never leak from one run into the next.
func runSet(args []string) int {
	fs := flag.NewFlagSet("benchmark run", flag.ExitOnError)
	label := fs.String("label", "latest", "result directory under "+defaultOut)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir := filepath.Join(defaultOut, *label)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Label: *label}
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(dir, fmt.Sprintf(".run_%s_%d.json", w.Name, trace))
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace),
				"--label", *label, "--result", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.Name, trace, err)
				status = 1
			}
			b, err := os.ReadFile(tmp)
			os.Remove(tmp)
			if err != nil {
				continue // the run failed before it had a result; reported above
			}
			res := new(result)
			if err := json.Unmarshal(b, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			set.Results = append(set.Results, res)
		}
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printSummary(set)
	return status
}

// printSummary prints the end-to-end table of a set, one row per workload.
func printSummary(set resultSet) {
	fmt.Printf("\n%-14s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %20s", d.Name)
	}
	fmt.Println(" correct")
	for _, r := range set.Results {
		if r.Traced {
			continue
		}
		fmt.Printf("%-14s", r.Workload)
		for _, d := range endToEnd {
			fmt.Printf(" %20.4f", r.Metrics[d.Name].Value)
		}
		fmt.Printf(" %v\n", r.Correct)
	}
	for _, r := range set.Results {
		if r.Traced {
			fmt.Printf("%-14s traced: trace.overhead_pct %.2f, trace.spans %.0f, correct %v\n",
				r.Workload, r.Metrics["trace.overhead_pct"].Value, r.Metrics["trace.spans"].Value, r.Correct)
		}
	}
}
