package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vmplants/internal/journal"
	"vmplants/internal/telemetry"
)

// The paper's claim is one request shape — a DAG-described creation
// through VMShop (§4.2) — measured under different conditions. Each
// condition is a Scenario: the paper's own figures and tables first
// (paper.go), then the gates this repository adds. The registry below
// lists them all, and Gate is the one runner that vmbench, check.sh, CI,
// the tests and the root benchmark put them through. Adding a scenario
// is one registry entry; a claim is enforced in its result's Violations
// and nowhere else.

// Series selects one of a scenario's two fixed parameter presets.
type Series string

const (
	Paper Series = "paper" // full scale, as reported in EXPERIMENTS.md
	Smoke Series = "smoke" // scaled down for CI
)

// ParseSeries validates a -series flag value.
func ParseSeries(s string) (Series, error) {
	switch Series(s) {
	case Paper, Smoke:
		return Series(s), nil
	}
	return "", fmt.Errorf("unknown series %q (want %s or %s)", s, Paper, Smoke)
}

// Result is what a scenario run leaves behind. Report renders it for
// people; Fingerprint digests every virtual-time observable, so two
// same-seed runs must produce equal fingerprints; Violations lists each
// invariant the run broke (empty = the gate passes). A result may also
// offer Artifacts() []Artifact: evidence worth keeping from a red run.
type Result interface {
	Report() []string
	Fingerprint() string
	Violations() []string
}

// Artifact is one named file of run evidence.
type Artifact struct {
	Name  string
	Write func(io.Writer) error
}

// Scenario is one gated experiment: a pure function from (seed, preset)
// to a Result.
type Scenario struct {
	Name  string
	Title string
	Run   func(seed int64, series Series) (Result, error)
	// rerunInReport makes Gate print no rerun verdict of its own.
	rerunInReport bool
}

// reportsOwnRerun marks a scenario whose Report already states its own
// same-seed rerun verdict.
func (s Scenario) reportsOwnRerun() Scenario {
	s.rerunInReport = true
	return s
}

// newScenario binds a typed run function to its two presets.
func newScenario[P any, R Result](name, title string, paper, smoke P, run func(seed int64, p P) (R, error)) Scenario {
	return Scenario{Name: name, Title: title, Run: func(seed int64, series Series) (Result, error) {
		p := paper
		if series == Smoke {
			p = smoke
		}
		res, err := run(seed, p)
		if err != nil {
			return nil, err
		}
		return res, nil
	}}
}

// fixedScenario registers a scenario that is already CI-sized: both
// series run it whole, its sizes constants beside its run function.
func fixedScenario[R Result](name, title string, run func(seed int64) (R, error)) Scenario {
	return newScenario(name, title, struct{}{}, struct{}{}, func(seed int64, _ struct{}) (R, error) { return run(seed) })
}

var scenarios = []Scenario{
	figure("fig4", "Figure 4: distribution of overall VM creation latencies", func(c *creationResult) fig4Result { return fig4Result{c} }),
	figure("fig5", "Figure 5: distribution of VM cloning latencies", func(c *creationResult) fig5Result { return fig5Result{c} }),
	figure("fig6", "Figure 6: cloning time vs VM sequence number", func(c *creationResult) fig6Result { return fig6Result{c} }),
	fixedScenario("copy", "§4.3: link-clone vs explicit full copy", runCopyBaseline),
	fixedScenario("uml", "§4.3: UML production line (32 MB, full boot per clone)", runUML),
	fixedScenario("cost", "§3.4: cost-function crossover (2 plants, network cost 50, compute 4×VMs)", runCostCrossover),
	fixedScenario("overhead", "§4.3: run-time virtualization overheads (cited constants)", runOverhead),
	fixedScenario("anatomy", "Anatomy of a 64 MB creation (stage means over 32 requests)", runAnatomy),
	fixedScenario("trace", "Telemetry: per-stage creation-time breakdown from traces (virtual seconds)", runTrace),
	fixedScenario("ablations", "Ablations: what each mechanism buys", runAblations),
	fixedScenario("extensions", "Extensions: the paper's §6 future work, implemented", runExtensions),
	newScenario("chaos", "Chaos: fault injection and failure recovery (§3.1 soft-state design)",
		chaosParams{requests: 32}, chaosParams{requests: 16}, runChaos),
	newScenario("pipeline", "Pipeline: batched creation throughput (8 plants, 64 MB workspaces)",
		pipelineParams{sizes: []int{1, 4, 16, 64}, cloneVMs: 8},
		pipelineParams{sizes: []int{1, 4, 16}, cloneVMs: 4}, runPipeline).reportsOwnRerun(),
	newScenario("warm", "Warm: the warehouse learning loop (derived images, utility retirement)",
		streamParams{plants: 4, requests: 48, users: 12, derivedBudgetMB: 600},
		streamParams{plants: 2, requests: 24, users: 8, derivedBudgetMB: 375}, runWarm),
	newScenario("scrub", "Scrub: end-to-end data integrity under corruption injection",
		streamParams{plants: 4, requests: 40, users: 10, derivedBudgetMB: 600},
		streamParams{plants: 2, requests: 20, users: 6, derivedBudgetMB: 375}, runScrub),
	newScenario("slo", "SLO: causal tracing, flight recorder and objectives under chaos",
		sloParams{warmBatch: 16, chaosRequests: 16}, sloParams{warmBatch: 8, chaosRequests: 8}, runSLO),
	newScenario("restart", "Restart: kill-9 crash-restart gate for the journaled control plane",
		restartParams{requests: 24}, restartParams{requests: 12}, runRestart),
	fixedScenario("federation", "Federation: multi-shop control plane with hierarchical bidding", runFederation),
	newScenario("diurnal", "Diurnal: elastic fleet under a simulated week of day/night load",
		diurnalPaper, diurnalSmoke, runDiurnal),
}

// Scenarios lists every registered scenario in execution order.
func Scenarios() []Scenario { return scenarios }

// sameSeed runs twice and reports whether the two fingerprints match
// byte for byte, returning the first run.
func sameSeed[R interface{ Fingerprint() string }](run func() (R, error)) (first R, same bool, err error) {
	if first, err = run(); err != nil {
		return first, false, err
	}
	again, err := run()
	if err != nil {
		return first, false, err
	}
	return first, first.Fingerprint() == again.Fingerprint(), nil
}

// Gate is the generic runner: it runs sc twice on the same seed, prints
// the report and the byte-compare verdict to w, dumps the result's
// artifacts into artifactsDir (when set) under the scenario's name, and
// returns an error listing every violated invariant.
func Gate(w io.Writer, sc Scenario, seed int64, series Series, artifactsDir string) error {
	res, same, err := sameSeed(func() (Result, error) { return sc.Run(seed, series) })
	if err != nil {
		return err
	}
	for _, line := range res.Report() {
		fmt.Fprintln(w, line)
	}
	if !sc.rerunInReport {
		fmt.Fprintf(w, "\nsame-seed rerun byte-identical: %v\n", same)
	}
	if a, ok := res.(interface{ Artifacts() []Artifact }); ok && artifactsDir != "" {
		arts := a.Artifacts()
		for i := range arts {
			arts[i].Name = sc.Name + "-" + arts[i].Name
		}
		if err := DumpArtifacts(artifactsDir, arts); err != nil {
			return fmt.Errorf("artifacts: %w", err)
		}
		fmt.Fprintf(w, "artifacts written to %s\n", artifactsDir)
	}
	violations := res.Violations()
	if !same {
		violations = append(violations, "same-seed rerun not byte-identical")
	}
	if len(violations) != 0 {
		return fmt.Errorf("%s run failed its gate:\n  %s", sc.Name, strings.Join(violations, "\n  "))
	}
	return nil
}

// DumpArtifacts writes each artifact to a file of its name under dir,
// so a red CI matrix job can upload the directory and stay debuggable
// without a local repro.
func DumpArtifacts(dir string, arts []Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range arts {
		f, err := os.Create(filepath.Join(dir, a.Name))
		if err != nil {
			return err
		}
		if err := a.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// chromeTrace is a span set as Chrome trace-event JSON (open in
// chrome://tracing or ui.perfetto.dev).
func chromeTrace(name string, spans []telemetry.Span) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error { return telemetry.WriteChromeTrace(w, spans) }}
}

// journalJSONL is a journal's records, one JSON object per line.
func journalJSONL(name string, recs []journal.Record) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}}
}

// transcript accumulates a run's fingerprint, one line per observable.
// Results embed it.
type transcript struct{ lines []string }

func (t *transcript) logf(format string, args ...any) {
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

// Fingerprint joins every line logged so far.
func (t *transcript) Fingerprint() string { return strings.Join(t.lines, "\n") }

// gate collects the invariants a result violates.
type gate []string

func (g *gate) check(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}
