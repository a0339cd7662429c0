package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vmplants/internal/journal"
)

// scenarioNamed finds a registry entry.
func scenarioNamed(t *testing.T, name string) Scenario {
	t.Helper()
	i := slices.IndexFunc(scenarios, func(sc Scenario) bool { return sc.Name == name })
	if i < 0 {
		t.Fatalf("no scenario %q in the registry", name)
	}
	return scenarios[i]
}

// gateHolds puts sc through Gate — the runner vmbench drives — and
// fails with the run's report when a claim or the same-seed rerun
// breaks.
func gateHolds(t *testing.T, sc Scenario, seed int64, series Series) {
	t.Helper()
	var out bytes.Buffer
	if err := Gate(&out, sc, seed, series, ""); err != nil {
		t.Errorf("seed %d %s: %v\n%s", seed, series, err, out.String())
	}
}

// The registry is what vmbench -list, check.sh and the CI matrix walk,
// so its names must be unique and each one documented. (That
// fingerprints.golden holds exactly two lines per entry is checked
// where the file is read, in TestScenariosPassGateAndMatchGolden.)
func TestRegistryShape(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("scenario name %q registered twice", sc.Name)
		}
		seen[sc.Name] = true
		if !bytes.Contains(doc, []byte("-exp "+sc.Name)) {
			t.Errorf("EXPERIMENTS.md never mentions `-exp %s`", sc.Name)
		}
	}
}

// The paper's claims are not an accident of seed 42: every scenario
// ahead of chaos — the paper's own figures, tables, ablations and
// extensions — passes its gate at two more seeds, under both presets.
// So do chaos, slo and pipeline, whose rounds wait out every slow or
// lost bid.
func TestPaperClaimsHoldOnOtherSeeds(t *testing.T) {
	chaos := slices.IndexFunc(scenarios, func(sc Scenario) bool { return sc.Name == "chaos" })
	gated := slices.Clone(scenarios[:chaos])
	for _, name := range []string{"chaos", "slo", "pipeline"} {
		gated = append(gated, scenarioNamed(t, name))
	}
	for _, sc := range gated {
		for _, seed := range []int64{7, 11} {
			for _, series := range []Series{Paper, Smoke} {
				t.Run(fmt.Sprintf("%s/%d/%s", sc.Name, seed, series), func(t *testing.T) {
					gateHolds(t, sc, seed, series)
				})
			}
		}
	}
}

// The per-claim tests that predate the registry, kept by name: each is
// now a row — a paper scenario's gate at the seed that test drew — and
// the threshold it used to spell out is read from its Checks.
func TestSmokeCreationExperimentShapes(t *testing.T) {
	for _, name := range []string{"fig4", "fig5", "fig6"} {
		gateHolds(t, scenarioNamed(t, name), 11, Smoke)
	}
}
func TestCostCrossoverAtThirteen(t *testing.T) { gateHolds(t, scenarioNamed(t, "cost"), 5, Paper) }
func TestUMLCloneAverageNear76s(t *testing.T)  { gateHolds(t, scenarioNamed(t, "uml"), 6, Paper) }
func TestCopyBaselineFactor(t *testing.T)      { gateHolds(t, scenarioNamed(t, "copy"), 7, Paper) }
func TestAblationNoPartialMatch(t *testing.T)  { gateHolds(t, scenarioNamed(t, "ablations"), 8, Paper) }
func TestAblationCopyClone(t *testing.T)       { gateHolds(t, scenarioNamed(t, "ablations"), 9, Paper) }
func TestTemplateVsDAG(t *testing.T)           { gateHolds(t, scenarioNamed(t, "ablations"), 10, Paper) }
func TestPrecreationHidesLatency(t *testing.T) {
	gateHolds(t, scenarioNamed(t, "extensions"), 12, Paper)
}
func TestMigrationFasterThanRecreation(t *testing.T) {
	gateHolds(t, scenarioNamed(t, "extensions"), 13, Paper)
}
func TestUMLCheckpointResumeSkipsBoot(t *testing.T) {
	gateHolds(t, scenarioNamed(t, "extensions"), 14, Paper)
}
func TestParkingFreesMemoryAndResumesFast(t *testing.T) {
	gateHolds(t, scenarioNamed(t, "extensions"), 15, Paper)
}
func TestAnatomyStagesSumSensibly(t *testing.T) { gateHolds(t, scenarioNamed(t, "anatomy"), 16, Paper) }

// Same seed, same preset: a scenario must replay byte-identically — the
// property Gate's rerun leans on — and a different seed must not, or
// the seed is not wired through.
func TestScenariosDeterministicAcrossRuns(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && sc.Name == "federation" {
				t.Skip("triple federation run in -short mode")
			}
			a, err := sc.Run(7, Smoke)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sc.Run(7, Smoke)
			if err != nil {
				t.Fatal(err)
			}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("same-seed runs diverged; first run:\n%s", a.Fingerprint())
			}
			c, err := sc.Run(8, Smoke)
			if err != nil {
				t.Fatal(err)
			}
			// overhead is the paper's cited constants: no seed to wire.
			if c.Fingerprint() == a.Fingerprint() && sc.Name != "overhead" {
				t.Error("different seeds produced identical fingerprints")
			}
		})
	}
}

// The diurnal smoke holds its full acceptance gate on a second seed
// too: the fleet's flexing is not an accident of seed 42.
func TestDiurnalSmokeGateSecondSeed(t *testing.T) {
	res, err := runDiurnal(11, diurnalSmoke)
	if err != nil {
		t.Fatalf("diurnal run: %v", err)
	}
	if msg := gateFailures(res); msg != "" {
		t.Errorf("gate violations:\n%s", msg)
	}
}

// The smoke seeds on which drain-time migration orphaned VMs, leaked
// networks or never ended hold every invariant now that a drain waits
// for its VMs, and each run ends inside its horizon (Run's error).
// Claims and preconditions are not judged here: on one seed they are a
// sample, not a defect.
func TestDiurnalRegressionSeedsHoldInvariants(t *testing.T) {
	sc := scenarioNamed(t, "diurnal")
	for _, seed := range []int64{9, 65, 94, 119, 159, 196} {
		res, err := sc.Run(seed, Smoke)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		for _, c := range res.Checks() {
			if c.kind == "invariant" && !c.ok {
				t.Errorf("seed %d: %s", seed, c)
			}
		}
	}
}

// Gate is the runner vmbench drives: report, every check with the rerun
// verdict last, then the failed checks as one error.
func TestGatePrintsReportAndRerunVerdict(t *testing.T) {
	var out bytes.Buffer
	chaos := scenarioNamed(t, "chaos")
	if err := Gate(&out, chaos, 42, Smoke, ""); err != nil {
		t.Fatalf("Gate: %v", err)
	}
	if !strings.HasSuffix(out.String(), "\nok   invariant rerun.identical: same-seed rerun byte-identical = true, want true\n") {
		t.Errorf("no rerun verdict at the end of:\n%s", out.String())
	}

	broken := chaos
	broken.Run = func(seed int64, series Series) (Result, error) {
		res, err := runChaos(seed, chaosParams{requests: 4})
		if err == nil {
			res.OrphanVMs = 1
		}
		return res, err
	}
	err := Gate(&out, broken, 42, Smoke, "")
	if err == nil || !strings.Contains(err.Error(), "\n  FAIL invariant chaos.orphans: orphaned VMs after drain = 1, want 0") {
		t.Errorf("Gate error = %v, want the orphan violation", err)
	}
}

// A failed precondition means the run proved nothing: its claims are
// not evaluated, so a failed claim is no violation, while every failed
// invariant still is.
func TestFailedPreconditionSetsClaimsAside(t *testing.T) {
	checks := []Check{
		atLeast(precondition("t.pre", "faults injected"), 0, 1),
		atLeast(claim("t.claim", "§0", "speedup"), 1.5, 2.0),
		equal(invariant("t.inv", "leaks"), 1, 0),
		equal(invariant("t.fine", "orphans"), 0, 0),
	}
	want := []string{
		"FAIL precondition t.pre: faults injected = 0, want ≥ 1",
		"FAIL invariant t.inv: leaks = 1, want 0",
	}
	if got := Failures(checks); !slices.Equal(got, want) {
		t.Errorf("Failures = %q, want %q", got, want)
	}
	if got := settle(checks)[1].String(); got != "skip claim t.claim: speedup = 1.5, want ≥ 2 (paper: §0)" {
		t.Errorf("set-aside claim renders as %q", got)
	}
	// With the precondition met, the same claim is a violation.
	checks[0] = atLeast(precondition("t.pre", "faults injected"), 3, 1)
	if got := Failures(checks); len(got) != 2 || got[0] != "FAIL claim t.claim: speedup = 1.5, want ≥ 2 (paper: §0)" {
		t.Errorf("Failures with the precondition met = %q", got)
	}
}

// What vmbench -artifacts writes reads back: every line of a journal
// dump decodes to one journal record, in sequence order, and the Chrome
// trace is one JSON document of complete trace events.
func TestGateArtifactsReadBack(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := Gate(&out, scenarioNamed(t, "federation"), 42, Smoke, dir); err != nil {
		t.Fatalf("Gate: %v\n%s", err, out.String())
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("journal dumps in %s: %v, %v", dir, dumps, err)
	}
	for _, path := range dumps {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var last uint64
		for i, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
			var rec journal.Record
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rec); err != nil || rec.Kind == "" || rec.Seq <= last {
				t.Fatalf("%s line %d: %+v, %v (after seq %d)", filepath.Base(path), i+1, rec, err, last)
			}
			last = rec.Seq
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "federation-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome trace: %d events, %v", len(doc.TraceEvents), err)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Tid == 0 {
			t.Fatalf("trace event %d: %+v", i, ev)
		}
	}
}

func TestParseSeriesRejectsUnknown(t *testing.T) {
	if _, err := ParseSeries("smok"); err == nil || !strings.Contains(err.Error(), "paper") {
		t.Errorf("ParseSeries(smok) error = %v, want one listing the valid values", err)
	}
	if s, err := ParseSeries("smoke"); err != nil || s != Smoke {
		t.Errorf("ParseSeries(smoke) = %v, %v", s, err)
	}
}

// Bugfix pin: runRestart attached the hub to the shop's journal only,
// so the "0 torn tails" invariant never saw the plant and warehouse
// journals the same run crashes and restarts. With all three reporting,
// the hub counts more appends than the shop's log holds records; on the
// parent the two were equal.
func TestRestartGateReadsAllThreeJournals(t *testing.T) {
	res, err := runRestart(42, restartParams{requests: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.JournalAppends <= int64(res.JournalRecords) {
		t.Errorf("hub saw %d journal appends for %d shop records: plant and warehouse journals not reporting",
			res.JournalAppends, res.JournalRecords)
	}
	t.Logf("journal.appends=%d, shop records=%d, torn tails=%d", res.JournalAppends, res.JournalRecords, res.TornTails)
}
