// Command vmbench regenerates every table and figure of the paper's
// evaluation from the simulated testbed and prints them in the paper's
// layout. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	vmbench                 # run everything at paper scale
//	vmbench -exp fig4       # one experiment
//	vmbench -series smoke   # scaled-down quick run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
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

// run is main without the process exit: it parses args, prints every
// selected experiment to stdout and returns the first gate failure, so
// a test can diff the output against a golden file.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: all, fig4, fig5, fig6, copy, uml, cost, overhead, anatomy, trace, ablations, extensions, chaos, pipeline, warm, scrub, slo, restart, federation, diurnal")
		seed      = fs.Int64("seed", 42, "random seed")
		series    = fs.String("series", "paper", "request series scale: paper or smoke")
		traceOut  = fs.String("trace", "", "write the trace experiment's spans as JSONL — or the slo experiment's spans as Chrome trace-event JSON — to this file")
		artifacts = fs.String("artifacts", "", "directory to dump journal segments and Chrome traces into (CI uploads it when an experiment gate fails)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	header := func(title string) {
		fmt.Fprintf(stdout, "\n===== %s =====\n\n", title)
	}

	specs := workload.PaperSeries()
	if *series == "smoke" {
		specs = workload.SmokeSeries()
	}

	var creation *workload.CreationExperiment
	needCreation := func() (*workload.CreationExperiment, error) {
		if creation == nil {
			var err error
			creation, err = workload.RunCreationExperiment(*seed, specs)
			if err != nil {
				return nil, err
			}
		}
		return creation, nil
	}

	experiments := map[string]func() error{
		"fig4": func() error {
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
		},
		"fig5": func() error {
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
		},
		"fig6": func() error {
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
		},
		"copy": func() error {
			res, err := workload.RunCopyBaseline(*seed)
			if err != nil {
				return err
			}
			header("§4.3: link-clone vs explicit full copy")
			fmt.Fprintf(stdout, "golden disk: %d bytes across %d extent files\n", res.GoldenDiskBytes, res.GoldenSpanFiles)
			fmt.Fprintf(stdout, "full copy over NFS:        %6.1f s   (paper: ≈210 s)\n", res.FullCopySecs)
			fmt.Fprintf(stdout, "average 256 MB link clone: %6.1f s\n", res.AvgClone256Secs)
			fmt.Fprintf(stdout, "slowdown factor:           %6.1f×   (paper: ≈4×)\n", res.SlowdownFactor)
			return nil
		},
		"uml": func() error {
			res, err := workload.RunUML(*seed, 40)
			if err != nil {
				return err
			}
			header("§4.3: UML production line (32 MB, full boot per clone)")
			fmt.Fprintf(stdout, "clones: %s\n", res.CloneSummary)
			fmt.Fprintln(stdout, "paper: average cloning time 76 s")
			return nil
		},
		"cost": func() error {
			res, err := workload.RunCostCrossover(*seed, 16)
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
		},
		"overhead": func() error {
			header("§4.3: run-time virtualization overheads (cited constants)")
			fmt.Fprintln(stdout, guestbench.FormatTable(guestbench.Table()))
			fmt.Fprintln(stdout, "paper: SPEC INT2000 ≈2 % (VMware), 3 % (UML), ≈0 % (Xen);")
			fmt.Fprintln(stdout, "SPECseis ≈6 % under VMware; I/O-heavy LSS ≈13 %.")
			return nil
		},
		"anatomy": func() error {
			res, err := workload.RunAnatomy(*seed, 32)
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
		},
		"extensions": func() error {
			pre, err := workload.RunPrecreation(*seed, 6)
			if err != nil {
				return err
			}
			mig, err := workload.RunMigration(*seed, 4)
			if err != nil {
				return err
			}
			uml, err := workload.RunPrecreationBackend(*seed, 4, "uml")
			if err != nil {
				return err
			}
			park, err := workload.RunParking(*seed, 5)
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
		},
		"trace": func() error {
			hub := telemetry.New()
			d, err := workload.NewDeployment(workload.Options{Seed: *seed, Telemetry: hub})
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
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				if err := hub.Tracer.WriteJSONL(f); err != nil {
					return fmt.Errorf("trace export: %v", err)
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("trace export: %v", err)
				}
				fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
			}
			return nil
		},
		"chaos": func() error {
			n := 32
			if *series == "smoke" {
				n = 16
			}
			res, err := workload.RunChaos(*seed, workload.ChaosOptions{Requests: n})
			if err != nil {
				return err
			}
			header("Chaos: fault injection and failure recovery (§3.1 soft-state design)")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunChaos(*seed, workload.ChaosOptions{Requests: n})
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if res.Succeeded != res.Requests || res.OrphanVMs != 0 || res.LeakedNets != 0 || !reproducible {
				return fmt.Errorf("chaos run failed its invariants (succeeded %d/%d, orphans %d, leaks %d, reproducible %v)",
					res.Succeeded, res.Requests, res.OrphanVMs, res.LeakedNets, reproducible)
			}
			return nil
		},
		"pipeline": func() error {
			opts := workload.PipelineOptions{}
			if *series == "smoke" {
				opts.Sizes = []int{1, 4, 16}
			}
			res, err := workload.RunPipeline(*seed, opts)
			if err != nil {
				return err
			}
			header("Pipeline: batched creation throughput (8 plants, 64 MB workspaces)")
			fmt.Fprintf(stdout, "%5s %4s %4s %12s %14s %10s %14s %12s\n",
				"batch", "ok", "fail", "makespan(s)", "thruput(vm/s)", "cache h/m", "adm-wait p99", "max-inflight")
			for _, bp := range res.Batches {
				fmt.Fprintf(stdout, "%5d %4d %4d %12.1f %14.4f %6d/%-4d %13.1fs %12d\n",
					bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.Throughput,
					bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight)
			}
			speedup := res.SpeedupOver(16, 1)
			fmt.Fprintf(stdout, "\nbatch-16 vs batch-1 throughput: %.1f×\n", speedup)
			fmt.Fprintf(stdout, "serial vs batch single-request creation log byte-identical: %v\n", res.DeterminismOK)

			vms := 8
			if *series == "smoke" {
				vms = 4
			}
			cmp, err := workload.RunCloneComparison(*seed, vms, 64)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "\nLazy vs eager cloning (content-addressed extent store):")
			for _, line := range cmp.Report() {
				fmt.Fprintln(stdout, line)
			}
			if *artifacts != "" {
				if err := dumpPipelineArtifacts(*artifacts, res, cmp); err != nil {
					return fmt.Errorf("artifacts: %v", err)
				}
				fmt.Fprintf(stdout, "artifacts written to %s\n", *artifacts)
			}
			if speedup < 3 || !res.DeterminismOK {
				return fmt.Errorf("pipeline run failed its invariants (speedup %.2f× < 3, deterministic %v)",
					speedup, res.DeterminismOK)
			}
			if cmp.ResumeSpeedup < 2 || !cmp.HashesMatch || !cmp.AllHydrated || !cmp.DeterminismOK {
				return fmt.Errorf("lazy-clone comparison failed its invariants (resume speedup %.2f× < 2, hashes %v, hydrated %v, deterministic %v)",
					cmp.ResumeSpeedup, cmp.HashesMatch, cmp.AllHydrated, cmp.DeterminismOK)
			}
			return nil
		},
		"warm": func() error {
			opts := workload.WarmOptions{}
			if *series == "smoke" {
				opts = workload.SmokeWarmOptions()
			}
			res, err := workload.RunWarm(*seed, opts)
			if err != nil {
				return err
			}
			header("Warm: the warehouse learning loop (derived images, utility retirement)")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunWarm(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			overBudget := res.Capacity > 0 && res.BytesUsed > res.Capacity
			if res.Improvement < 0.30 || res.Retirements == 0 || overBudget ||
				!res.SeedsIntact || res.Failed != 0 || !reproducible {
				return fmt.Errorf("warm run failed its invariants (improvement %.1f%% < 30%%, retirements %d, over-budget %v, seeds intact %v, failed %d, reproducible %v)",
					100*res.Improvement, res.Retirements, overBudget, res.SeedsIntact, res.Failed, reproducible)
			}
			if res.ExtentSavedBytes <= 0 {
				return fmt.Errorf("warm run saved no extent bytes (logical %d, physical %d) — content-addressed dedup is not engaging",
					res.ExtentLogicalBytes, res.ExtentPhysicalBytes)
			}
			return nil
		},
		"scrub": func() error {
			opts := workload.ScrubOptions{}
			if *series == "smoke" {
				opts = workload.SmokeScrubOptions()
			}
			res, err := workload.RunScrub(*seed, opts)
			if err != nil {
				return err
			}
			header("Scrub: end-to-end data integrity under corruption injection")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			if err := res.Check(); err != nil {
				return err
			}
			again, err := workload.RunScrub(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if !reproducible {
				return fmt.Errorf("scrub run is not deterministic across same-seed reruns")
			}
			return nil
		},
		"slo": func() error {
			opts := workload.SLOOptions{}
			if *series == "smoke" {
				opts = workload.SLOOptions{WarmBatch: 8, ChaosRequests: 8}
			}
			res, err := workload.RunSLO(*seed, opts)
			if err != nil {
				return err
			}
			header("SLO: causal tracing, flight recorder and objectives under chaos")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunSLO(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if res.Succeeded != res.Requests || !res.TreeOK() || !res.SLOsHold || !reproducible {
				return fmt.Errorf("slo run failed its invariants (succeeded %d/%d, tree ok %v, slos hold %v, reproducible %v)",
					res.Succeeded, res.Requests, res.TreeOK(), res.SLOsHold, reproducible)
			}
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				if err := telemetry.WriteChromeTrace(f, res.Spans); err != nil {
					return fmt.Errorf("chrome trace export: %v", err)
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("chrome trace export: %v", err)
				}
				fmt.Fprintf(stdout, "chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
			}
			return nil
		},
		"restart": func() error {
			opts := workload.RestartOptions{}
			if *series == "smoke" {
				opts.Requests = 12
			}
			res, err := workload.RunRestart(*seed, opts)
			if err != nil {
				return err
			}
			header("Restart: kill-9 crash-restart gate for the journaled control plane")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunRestart(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if res.Succeeded != res.Requests || res.Lost != 0 || res.Duplicated != 0 ||
				res.ShopKills == 0 || !res.QuarantineSurvived || !reproducible {
				return fmt.Errorf("restart run failed its invariants (succeeded %d/%d, lost %d, dup %d, kills %d, quarantine %v, reproducible %v)",
					res.Succeeded, res.Requests, res.Lost, res.Duplicated, res.ShopKills, res.QuarantineSurvived, reproducible)
			}
			return nil
		},
		"diurnal": func() error {
			opts := workload.DiurnalOptions{}
			if *series == "smoke" {
				opts = workload.SmokeDiurnalOptions()
			}
			res, err := workload.RunDiurnal(*seed, opts)
			if err != nil {
				return err
			}
			header("Diurnal: elastic fleet under a simulated week of day/night load")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunDiurnal(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if *artifacts != "" {
				if err := dumpDiurnalArtifacts(*artifacts, res); err != nil {
					return fmt.Errorf("artifacts: %v", err)
				}
				fmt.Fprintf(stdout, "artifacts written to %s\n", *artifacts)
			}
			violations := res.GateViolations(true)
			if !reproducible {
				violations = append(violations, "same-seed rerun not byte-identical")
			}
			if len(violations) != 0 {
				return fmt.Errorf("diurnal run failed its gate:\n  %s", strings.Join(violations, "\n  "))
			}
			return nil
		},
		"federation": func() error {
			opts := workload.FederationOptions{}
			if *series == "smoke" {
				opts = workload.SmokeFederationOptions()
			}
			res, err := workload.RunFederation(*seed, opts)
			if err != nil {
				return err
			}
			header("Federation: multi-shop control plane with hierarchical bidding")
			for _, line := range res.Report() {
				fmt.Fprintln(stdout, line)
			}
			again, err := workload.RunFederation(*seed, opts)
			if err != nil {
				return err
			}
			reproducible := again.Fingerprint == res.Fingerprint
			fmt.Fprintf(stdout, "\nsame-seed rerun byte-identical: %v\n", reproducible)
			if *artifacts != "" {
				if err := dumpFederationArtifacts(*artifacts, res); err != nil {
					return fmt.Errorf("artifacts: %v", err)
				}
				fmt.Fprintf(stdout, "artifacts written to %s\n", *artifacts)
			}
			// The federation must serve the entire offered stream; the
			// single shop is allowed to shed load (that is the point),
			// but must serve something or the ratio is meaningless.
			if res.FederatedSucceeded != res.ThroughputRequests || res.BaselineSucceeded == 0 ||
				res.Succeeded != res.Requests || res.Speedup < 2.5 || res.Forwarded == 0 ||
				res.Lost != 0 || res.Duplicated != 0 || res.ShopKills == 0 ||
				!res.GossipOK || !res.WarmCloneOK || !reproducible {
				return fmt.Errorf("federation run failed its invariants (stream: base %d/%d, fed %d/%d; integrity %d/%d; speedup %.2fx < 2.5, forwarded %d, lost %d, dup %d, kills %d, gossip %v, warm clone %v, reproducible %v)",
					res.BaselineSucceeded, res.ThroughputRequests,
					res.FederatedSucceeded, res.ThroughputRequests,
					res.Succeeded, res.Requests, res.Speedup, res.Forwarded, res.Lost,
					res.Duplicated, res.ShopKills, res.GossipOK, res.WarmCloneOK, reproducible)
			}
			return nil
		},
		"ablations": func() error {
			a1, err := workload.RunAblationNoPartialMatch(*seed, 4)
			if err != nil {
				return err
			}
			a2, err := workload.RunTemplateVsDAG(*seed, 8)
			if err != nil {
				return err
			}
			a3, err := workload.RunAblationCopyClone(*seed, 4)
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
		},
	}

	order := []string{"fig4", "fig5", "fig6", "copy", "uml", "cost", "overhead", "anatomy", "trace", "ablations", "extensions", "chaos", "pipeline", "warm", "scrub", "slo", "restart", "federation", "diurnal"}
	switch *exp {
	case "all":
		for _, name := range order {
			if err := experiments[name](); err != nil {
				return err
			}
		}
	default:
		fn, ok := experiments[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want %s)", *exp, strings.Join(append(order, "all"), ", "))
		}
		return fn()
	}
	return nil
}

// dumpFederationArtifacts writes the run's per-cell journal records and
// its full span set as a Chrome trace into dir, so a red CI matrix job
// can upload them and stay debuggable without a local repro.
func dumpFederationArtifacts(dir string, res *workload.FederationResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cells := make([]string, 0, len(res.Journals))
	for cell := range res.Journals {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	for _, cell := range cells {
		f, err := os.Create(filepath.Join(dir, "journal-"+cell+".jsonl"))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, rec := range res.Journals[cell] {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, res.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpDiurnalArtifacts writes the shop's journal and the week's span
// set as a Chrome trace into dir, so a red CI matrix job can upload
// them and stay debuggable without a local repro.
func dumpDiurnalArtifacts(dir string, res *workload.DiurnalResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "journal-shop.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range res.Journal {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, res.Spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpPipelineArtifacts writes the batch sweep and the lazy-vs-eager
// clone comparison (dedup ratio, hydration lag, per-VM hashes) as JSON
// into dir, so a red CI matrix job stays debuggable without a local
// repro.
func dumpPipelineArtifacts(dir string, res *workload.PipelineResult, cmp *workload.CloneComparison) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "pipeline-metrics.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	payload := struct {
		Batches    []workload.BatchPoint
		Comparison *workload.CloneComparison
	}{res.Batches, cmp}
	if err := enc.Encode(payload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
