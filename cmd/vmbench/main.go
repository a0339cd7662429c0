// Command vmbench regenerates every table and figure of the paper's
// evaluation from the simulated testbed and prints them in the paper's
// layout. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	vmbench                 # run everything at paper scale
//	vmbench -exp fig4       # one experiment
//	vmbench -series smoke   # scaled-down quick run
//	vmbench -list           # the gated scenarios (workload.Scenarios)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"vmplants/internal/guestbench"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
	"vmplants/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("vmbench: %v", err)
	}
}

// experiment is one named -exp choice.
type experiment struct {
	name string
	run  func() error
}

// run is main without the process exit: it parses args, prints every
// selected experiment to stdout and returns the first gate failure, so
// a test can diff the output against a golden file.
func run(args []string, stdout io.Writer) error {
	var (
		seed      int64
		series    workload.Series
		artifacts string
		creation  *workload.CreationExperiment
	)
	header := func(title string) {
		fmt.Fprintf(stdout, "\n===== %s =====\n\n", title)
	}
	needCreation := func() (*workload.CreationExperiment, error) {
		if creation == nil {
			specs := workload.PaperSeries()
			if series == workload.Smoke {
				specs = workload.SmokeSeries()
			}
			var err error
			creation, err = workload.RunCreationExperiment(seed, specs)
			if err != nil {
				return nil, err
			}
		}
		return creation, nil
	}

	// The paper's tables and figures, then every registered scenario
	// through the one gate runner: -exp's choices, `all`'s order and
	// -list all derive from this slice.
	experiments := []experiment{
		{"fig4", func() error {
			e, err := needCreation()
			if err != nil {
				return err
			}
			hists, order := e.Figure4()
			header("Figure 4: distribution of overall VM creation latencies")
			fmt.Fprintln(stdout, stats.MultiHistogramTable("latency (s, bucket center)", hists, order))
			for _, s := range e.Series {
				recs := e.Records[s.MemoryMB]
				fmt.Fprintf(stdout, "%3d MB: %d/%d created, %s\n", s.MemoryMB,
					workload.Succeeded(recs), len(recs), stats.Summarize(workload.CreateTimes(recs)))
			}
			fmt.Fprintln(stdout, "\npaper: VMs instantiated on average in 25–48 s; envelope 17–85 s;")
			fmt.Fprintln(stdout, "creation times larger for larger memory sizes; 121/124/40 VMs created.")
			return nil
		}},
		{"fig5", func() error {
			e, err := needCreation()
			if err != nil {
				return err
			}
			hists, order := e.Figure5()
			header("Figure 5: distribution of VM cloning latencies")
			fmt.Fprintln(stdout, stats.MultiHistogramTable("cloning time (s, bucket center)", hists, order))
			for _, s := range e.Series {
				fmt.Fprintf(stdout, "%3d MB clone: %s\n", s.MemoryMB,
					stats.Summarize(workload.CloneTimes(e.Records[s.MemoryMB])))
			}
			return nil
		}},
		{"fig6", func() error {
			e, err := needCreation()
			if err != nil {
				return err
			}
			header("Figure 6: cloning time vs VM sequence number")
			var down []*stats.Series
			for _, s := range e.Figure6() {
				down = append(down, s.Downsample(8))
			}
			fmt.Fprintln(stdout, stats.MultiSeriesTable("sequence", down...))
			for _, s := range e.Figure6() {
				fmt.Fprintf(stdout, "%s trend: %+.3f s/request\n", s.Name, s.TrendSlope())
			}
			fmt.Fprintln(stdout, "\npaper: cloning times increase as plants fill; most noticeable for 64 MB and 256 MB.")
			return nil
		}},
		{"copy", func() error {
			res, err := workload.RunCopyBaseline(seed)
			if err != nil {
				return err
			}
			header("§4.3: link-clone vs explicit full copy")
			fmt.Fprintf(stdout, "golden disk: %d bytes across %d extent files\n", res.GoldenDiskBytes, res.GoldenSpanFiles)
			fmt.Fprintf(stdout, "full copy over NFS:        %6.1f s   (paper: ≈210 s)\n", res.FullCopySecs)
			fmt.Fprintf(stdout, "average 256 MB link clone: %6.1f s\n", res.AvgClone256Secs)
			fmt.Fprintf(stdout, "slowdown factor:           %6.1f×   (paper: ≈4×)\n", res.SlowdownFactor)
			return nil
		}},
		{"uml", func() error {
			res, err := workload.RunUML(seed, 40)
			if err != nil {
				return err
			}
			header("§4.3: UML production line (32 MB, full boot per clone)")
			fmt.Fprintf(stdout, "clones: %s\n", res.CloneSummary)
			fmt.Fprintln(stdout, "paper: average cloning time 76 s")
			return nil
		}},
		{"cost", func() error {
			res, err := workload.RunCostCrossover(seed, 16)
			if err != nil {
				return err
			}
			header("§3.4: cost-function crossover (2 plants, network cost 50, compute 4×VMs)")
			fmt.Fprintln(stdout, "request  plant")
			for i, pl := range res.Assignments {
				fmt.Fprintf(stdout, "%7d  %s\n", i+1, pl)
			}
			fmt.Fprintf(stdout, "\ncrossover at request %d (paper: the 14th request switches plants)\n", res.Crossover)
			return nil
		}},
		{"overhead", func() error {
			header("§4.3: run-time virtualization overheads (cited constants)")
			fmt.Fprintln(stdout, guestbench.FormatTable(guestbench.Table()))
			fmt.Fprintln(stdout, "paper: SPEC INT2000 ≈2 % (VMware), 3 % (UML), ≈0 % (Xen);")
			fmt.Fprintln(stdout, "SPECseis ≈6 % under VMware; I/O-heavy LSS ≈13 %.")
			return nil
		}},
		{"anatomy", func() error {
			res, err := workload.RunAnatomy(seed, 32)
			if err != nil {
				return err
			}
			header("Anatomy of a 64 MB creation (stage means over 32 requests)")
			fmt.Fprintf(stdout, "state copy over NFS:    %6.1f s\n", res.CopySecs.Mean)
			fmt.Fprintf(stdout, "resume (read + VMM):    %6.1f s\n", res.ResumeSecs.Mean)
			fmt.Fprintf(stdout, "residual configuration: %6.1f s\n", res.ConfigSecs.Mean)
			fmt.Fprintf(stdout, "plant-side total:       %6.1f s\n", res.TotalSecs.Mean)
			fmt.Fprintf(stdout, "client end-to-end:      %6.1f s (adds discovery/bidding/transport)\n", res.ClientSecs.Mean)
			return nil
		}},
		{"trace", func() error {
			hub := telemetry.New()
			d, err := workload.NewDeployment(workload.Options{Seed: seed, Telemetry: hub})
			if err != nil {
				return err
			}
			recs, err := d.RunCreationSeries(16, 64)
			if err != nil {
				return err
			}
			header("Telemetry: per-stage creation-time breakdown from traces (virtual seconds)")
			spans := hub.Tracer.Spans()
			byStage := make(map[string][]float64)
			for _, s := range spans {
				byStage[s.Name] = append(byStage[s.Name], s.Virtual().Seconds())
			}
			// Creation pipeline stages first, in execution order, then
			// anything else a run happened to trace.
			stages := []string{"shop.create", "shop.bid", "plant.create", "plan",
				"clone", "clone.copy", "clone.resume", "clone.boot", "configure", "action"}
			var rest []string
			for name := range byStage {
				known := false
				for _, s := range stages {
					if s == name {
						known = true
						break
					}
				}
				if !known {
					rest = append(rest, name)
				}
			}
			sort.Strings(rest)
			fmt.Fprintf(stdout, "%-16s %5s %8s %8s %8s %8s\n", "stage", "n", "mean", "p50", "p90", "max")
			for _, name := range append(stages, rest...) {
				samples, ok := byStage[name]
				if !ok {
					continue
				}
				sum := stats.Summarize(samples)
				fmt.Fprintf(stdout, "%-16s %5d %8.2f %8.2f %8.2f %8.2f\n",
					name, sum.N, sum.Mean, sum.P50, sum.P90, sum.Max)
			}
			fmt.Fprintf(stdout, "\n%d spans from %d/%d successful creations; %d metrics registered\n",
				len(spans), workload.Succeeded(recs), len(recs), len(hub.Metrics.Snapshot()))
			if artifacts != "" {
				jsonl := workload.Artifact{Name: "trace.jsonl", Write: hub.Tracer.WriteJSONL}
				if err := workload.DumpArtifacts(artifacts, []workload.Artifact{jsonl}); err != nil {
					return fmt.Errorf("trace export: %w", err)
				}
				fmt.Fprintf(stdout, "trace written to %s/trace.jsonl\n", artifacts)
			}
			return nil
		}},
		{"ablations", func() error {
			a1, err := workload.RunAblationNoPartialMatch(seed, 4)
			if err != nil {
				return err
			}
			a2, err := workload.RunTemplateVsDAG(seed, 8)
			if err != nil {
				return err
			}
			a3, err := workload.RunAblationCopyClone(seed, 4)
			if err != nil {
				return err
			}
			header("Ablations: what each mechanism buys")
			fmt.Fprintf(stdout, "A1 no partial matching: %.1f s → %.1f s per create (%.0f× slower)\n",
				a1.BaselineSecs.Mean, a1.VariantSecs.Mean, a1.Factor)
			fmt.Fprintf(stdout, "A2 template matching:   %d/%d cache hits vs %d/%d with DAGs; mean %.1f s vs %.1f s\n",
				a2.TemplateHits, a2.Requests, a2.DAGHits, a2.Requests,
				a2.TemplateSummary.Mean, a2.DAGSummary.Mean)
			fmt.Fprintf(stdout, "A3 copy-clone:          %.1f s → %.1f s per create (%.0f× slower)\n",
				a3.BaselineSecs.Mean, a3.VariantSecs.Mean, a3.Factor)
			return nil
		}},
		{"extensions", func() error {
			pre, err := workload.RunPrecreation(seed, 6)
			if err != nil {
				return err
			}
			mig, err := workload.RunMigration(seed, 4)
			if err != nil {
				return err
			}
			uml, err := workload.RunPrecreationBackend(seed, 4, "uml")
			if err != nil {
				return err
			}
			park, err := workload.RunParking(seed, 5)
			if err != nil {
				return err
			}
			header("Extensions: the paper's §6 future work, implemented")
			fmt.Fprintf(stdout, "E9 speculative pre-creation: %.1f s → %.1f s per create (%.1f× faster, %d/6 pool hits)\n",
				pre.ColdSummary.Mean, pre.WarmSummary.Mean, pre.Speedup, pre.Hits)
			fmt.Fprintf(stdout, "E10 VM migration:            %.1f s to migrate vs %.1f s to re-create (%.1f× faster)\n",
				mig.MigrateSecs.Mean, mig.RecreateSecs.Mean, mig.Speedup)
			fmt.Fprintf(stdout, "E11 SBUML-style UML resume:  %.1f s boot → %.1f s checkpoint resume (%.1f× faster)\n",
				uml.ColdSummary.Mean, uml.WarmSummary.Mean, uml.Speedup)
			fmt.Fprintf(stdout, "E13 workspace parking:       suspend %.1f s, resume %.1f s (vs %.1f s re-create); %d MB → %d MB committed while parked\n",
				park.SuspendSecs.Mean, park.ResumeSecs.Mean, park.CreateSecs.Mean,
				park.CommittedBefore, park.CommittedParked)
			return nil
		}},
	}
	for _, sc := range workload.Scenarios() {
		experiments = append(experiments, experiment{sc.Name, func() error {
			header(sc.Title)
			return workload.Gate(stdout, sc, seed, series, artifacts)
		}})
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}

	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", "))
	fs.Int64Var(&seed, "seed", 42, "random seed")
	seriesName := fs.String("series", string(workload.Paper), "request series scale: paper or smoke")
	fs.StringVar(&artifacts, "artifacts", "", "directory to dump run evidence into — span traces, journals, metrics (CI uploads it when an experiment gate fails)")
	list := fs.Bool("list", false, "print the gated scenarios, one per line, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sc := range workload.Scenarios() {
			fmt.Fprintln(stdout, sc.Name)
		}
		return nil
	}
	var err error
	if series, err = workload.ParseSeries(*seriesName); err != nil {
		return err
	}
	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			ran = true
			if err := e.run(); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(names, ", "))
	}
	return nil
}
