// Command vmbench regenerates every table and figure of the paper's
// evaluation from the simulated testbed, prints them in the paper's
// layout and exits nonzero when a run breaks the claim it reproduces.
// Every experiment is an entry of the scenario registry
// (workload.Scenarios) run through the one gate (workload.Gate); see
// EXPERIMENTS.md for the index.
//
// Usage:
//
//	vmbench                 # run everything at paper scale
//	vmbench -exp <name>     # one experiment
//	vmbench -series smoke   # scaled-down quick run
//	vmbench -list           # the experiment names, one per line
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vmplants/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("vmbench: %v", err)
	}
}

// run is main without the process exit: it parses args, prints every
// selected experiment to stdout and returns the first gate failure, so
// a test can diff the output against a golden file.
func run(args []string, stdout io.Writer) error {
	names := []string{"all"}
	for _, sc := range workload.Scenarios() {
		names = append(names, sc.Name)
	}
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 42, "random seed")
	seriesName := fs.String("series", string(workload.Paper), "request series scale: paper or smoke")
	artifacts := fs.String("artifacts", "", "directory to dump run evidence into — span traces, journals, metrics (CI uploads it when an experiment gate fails)")
	list := fs.Bool("list", false, "print the experiment names, one per line, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(names[1:], "\n"))
		return nil
	}
	series, err := workload.ParseSeries(*seriesName)
	if err != nil {
		return err
	}
	ran := false
	for _, sc := range workload.Scenarios() {
		if *exp != "all" && *exp != sc.Name {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "\n===== %s =====\n\n", sc.Title)
		if err := workload.Gate(stdout, sc, *seed, series, *artifacts); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(names, ", "))
	}
	return nil
}
