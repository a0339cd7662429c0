package workload

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
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
func TestPaperClaimsHoldOnOtherSeeds(t *testing.T) {
	for _, sc := range scenarios {
		if sc.Name == "chaos" {
			break
		}
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
// the threshold it used to spell out is read from Violations.
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
			a, same, err := sameSeed(func() (Result, error) { return sc.Run(7, Smoke) })
			if err != nil {
				t.Fatal(err)
			}
			if !same {
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
	if len(res.Violations()) != 0 {
		t.Errorf("gate violations:\n%s", gateFailures(res))
	}
}

// Gate is the runner vmbench drives: report, rerun verdict, then the
// violations as one error.
func TestGatePrintsReportAndRerunVerdict(t *testing.T) {
	var out bytes.Buffer
	chaos := scenarioNamed(t, "chaos")
	if err := Gate(&out, chaos, 42, Smoke, ""); err != nil {
		t.Fatalf("Gate: %v", err)
	}
	if !strings.HasSuffix(out.String(), "\nsame-seed rerun byte-identical: true\n") {
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
	if err == nil || !strings.Contains(err.Error(), "1 orphaned VMs after drain") {
		t.Errorf("Gate error = %v, want the orphan violation", err)
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
