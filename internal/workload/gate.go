package workload

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// is one registry entry; a claim is one Check in its result's Checks
// and is stated nowhere else.

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

// Result is what a scenario run leaves behind. Report renders what no
// check states (tables, histograms, ungated numbers); Fingerprint
// digests every virtual-time observable, so two same-seed runs must
// produce equal fingerprints; Checks is every gated statement of the
// run. A result may also offer Artifacts() []Artifact: evidence worth
// keeping from a red run.
type Result interface {
	Report() []string
	Fingerprint() string
	Checks() []Check
}

// Check is one gated statement of a run: its kind, an ID that
// EXPERIMENTS.md cites once, for a claim the paper's section or figure,
// a label, the observed value and the bound, both rendered, and the
// verdict. By what a failure means, a check is an invariant, which must
// hold on every seed (a defect); a claim, which holds a statistic to a
// bound, the paper's number where the paper gives one (on one seed,
// maybe a noisy sample); or a precondition, which says the run
// exercised what its claims are about (when one fails the run proves
// nothing, so no claim of it is evaluated).
type Check struct {
	kind, id, source, label, got, want string
	ok                                 bool
	skipped                            bool // a claim not evaluated: a precondition failed
}

func invariant(id, label string) Check    { return Check{kind: "invariant", id: id, label: label} }
func precondition(id, label string) Check { return Check{kind: "precondition", id: id, label: label} }

// claim starts a claim; source is the paper's section or figure, empty
// for a claim of this repository's own.
func claim(id, source, label string) Check {
	return Check{kind: "claim", id: id, source: source, label: label}
}

// equal, atLeast, atMost and within hold c to got == want, got >= min,
// got <= max and lo <= got <= hi.
func equal[T comparable](c Check, got, want T) Check {
	return holds(c, got == want, show(got), show(want))
}
func atLeast[T cmp.Ordered](c Check, got, min T) Check {
	return holds(c, got >= min, show(got), "≥ "+show(min))
}
func atMost[T cmp.Ordered](c Check, got, max T) Check {
	return holds(c, got <= max, show(got), "≤ "+show(max))
}
func within[T cmp.Ordered](c Check, got, lo, hi T) Check {
	return holds(c, lo <= got && got <= hi, show(got), show(lo)+"–"+show(hi))
}

// holds holds c to a condition the caller evaluated and rendered.
func holds(c Check, ok bool, got, want string) Check {
	c.ok, c.got, c.want = ok, got, want
	return c
}

// show renders an observed value or a bound, a float to four
// significant digits.
func show(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', 4, 64)
	}
	return fmt.Sprint(v)
}

// String renders the check as its one line, under the report and, when
// it failed, as its violation.
func (c Check) String() string {
	verdict := "ok"
	if c.skipped {
		verdict = "skip"
	} else if !c.ok {
		verdict = "FAIL"
	}
	line := fmt.Sprintf("%-4s %s %s: %s = %s, want %s", verdict, c.kind, c.id, c.label, c.got, c.want)
	if c.source != "" {
		line += " (paper: " + c.source + ")"
	}
	return line
}

// settle applies the precondition rule: when a precondition failed, no
// claim is evaluated. Invariants always are.
func settle(checks []Check) []Check {
	checks = slices.Clone(checks)
	if slices.ContainsFunc(checks, func(c Check) bool { return c.kind == "precondition" && !c.ok }) {
		for i := range checks {
			checks[i].skipped = checks[i].kind == "claim"
		}
	}
	return checks
}

// Failures is the gate's verdict on a run's checks: the rendered line of
// every check that failed, once the precondition rule has set aside the
// claims of a run that proved nothing. Empty means the gate passes.
func Failures(checks []Check) []string {
	var out []string
	for _, c := range settle(checks) {
		if !c.ok && !c.skipped {
			out = append(out, c.String())
		}
	}
	return out
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
		pipelineParams{sizes: []int{1, 4, 16}, cloneVMs: 6}, runPipeline),
	newScenario("warm", "Warm: the warehouse learning loop (derived images, utility retirement)",
		streamParams{plants: 4, requests: 48, users: 12, derivedBudgetMB: 600},
		streamParams{plants: 2, requests: 24, users: 8, derivedBudgetMB: 375}, runWarm),
	newScenario("scrub", "Scrub: end-to-end data integrity under corruption injection",
		streamParams{plants: 4, requests: 40, users: 10, derivedBudgetMB: 600},
		streamParams{plants: 2, requests: 20, users: 6, derivedBudgetMB: 375}, runScrub),
	newScenario("slo", "SLO: causal tracing and objectives under chaos",
		sloParams{warmBatch: 16, chaosRequests: 16}, sloParams{warmBatch: 8, chaosRequests: 8}, runSLO),
	newScenario("restart", "Restart: kill-9 crash-restart gate for the journaled control plane",
		restartParams{requests: 24}, restartParams{requests: 12}, runRestart),
	fixedScenario("federation", "Federation: multi-shop control plane with hierarchical bidding", runFederation),
}

// Scenarios lists every registered scenario in execution order.
func Scenarios() []Scenario { return scenarios }

// Gate is the generic runner: it runs sc twice on the same seed, prints
// the report and then every check, the byte-compare verdict last, to w,
// dumps the result's artifacts into artifactsDir (when set) under the
// scenario's name, and returns an error listing every failed check.
func Gate(w io.Writer, sc Scenario, seed int64, series Series, artifactsDir string) error {
	res, err := sc.Run(seed, series)
	if err != nil {
		return err
	}
	again, err := sc.Run(seed, series)
	if err != nil {
		return err
	}
	same := res.Fingerprint() == again.Fingerprint()
	for _, line := range res.Report() {
		fmt.Fprintln(w, line)
	}
	checks := settle(append(res.Checks(), equal(invariant("rerun.identical", "same-seed rerun byte-identical"), same, true)))
	fmt.Fprintln(w)
	for _, c := range checks {
		fmt.Fprintln(w, c)
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
	if failures := Failures(checks); len(failures) != 0 {
		return fmt.Errorf("%s run failed its gate:\n  %s", sc.Name, strings.Join(failures, "\n  "))
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
