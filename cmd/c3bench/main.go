// Command c3bench regenerates the paper's evaluation: every table and figure
// (Figures 1–15 plus the §5 text experiments and the ablations), rendered as
// text reports, plus the live membership-churn experiment (elastic). The
// live store's other numbers come from the measurement spine, benchmark/.
//
// Usage:
//
//	c3bench                      # run everything at medium scale
//	c3bench -fig fig14           # one experiment
//	c3bench -scale full -seeds 5 # paper-scale (long)
//	c3bench -list                # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"c3/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "experiment id (see -list) or 'all'")
	scale := flag.String("scale", "medium", "quick | medium | full")
	seeds := flag.Int("seeds", 0, "repetitions per configuration (0 = scale default)")
	elasticjson := flag.String("elasticjson", "BENCH_elastic.json",
		"path for the machine-readable membership-churn benchmark record (written when the elastic experiment runs; empty disables)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("  %-12s %s\n", r.ID, r.Name)
		}
		return
	}
	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	o := bench.Options{Scale: sc, Seeds: *seeds, ElasticJSONPath: *elasticjson}

	runners := bench.All()
	if *fig != "all" {
		r, ok := bench.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *fig)
			os.Exit(2)
		}
		runners = []bench.Runner{r}
	}
	failed := false
	for _, r := range runners {
		start := time.Now()
		rep := r.Run(o)
		fmt.Print(rep.String())
		fmt.Printf("   [%s in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		failed = failed || rep.Failed
	}
	if failed {
		os.Exit(1)
	}
}
