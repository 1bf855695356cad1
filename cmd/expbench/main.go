// Command expbench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per arrow of Figure 1 of the paper plus the capture
// results (E1–E12 of DESIGN.md) and the ablations A1–A8. The
// experiments are defined in internal/workload; the root package's
// BenchmarkExperiment times the same runs.
//
// Usage:
//
//	expbench             # run all experiments
//	expbench -exp E1,E4  # run a subset
//	expbench -quick      # smaller workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"guardedrules/internal/budget"
	"guardedrules/internal/workload"
)

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "smaller workloads")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per engine run, e.g. 30s (0 = none)")
	maxFacts := flag.Int("max-facts", 0, "fact ceiling per engine run (0 = none)")
	flag.Parse()
	var lim *budget.T
	if *timeout != 0 || *maxFacts != 0 {
		lim = &budget.T{Timeout: *timeout, MaxFacts: *maxFacts}
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	failed := 0
	for _, e := range workload.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := run(os.Stdout, e, *quick, lim); err != nil {
			failed++
			fmt.Printf("%s FAILED: %v\n", e.ID, err)
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// run runs e at its full or quick sizes under lim and prints its
// report to w, up to the failing row if a check fails.
func run(w io.Writer, e workload.Experiment, quick bool, lim *budget.T) error {
	sizes := e.Full
	if quick {
		sizes = e.Quick
	}
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	rep, err := e.Run(sizes, lim)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, b := range rep {
		if b.Header == nil {
			tw.Flush()
			fmt.Fprintln(w, b.Line)
			continue
		}
		fmt.Fprintln(tw, strings.Join(b.Header, "\t"))
		for _, row := range b.Rows {
			for i, c := range row {
				if i > 0 {
					fmt.Fprint(tw, "\t")
				}
				fmt.Fprint(tw, c)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return err
}
