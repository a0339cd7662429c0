package workload

import (
	"bytes"
	"strings"
	"testing"
)

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
			if c.Fingerprint() == a.Fingerprint() {
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
	if err := Gate(&out, scenarios[0], 42, Smoke, ""); err != nil {
		t.Fatalf("Gate: %v", err)
	}
	if !strings.HasSuffix(out.String(), "\nsame-seed rerun byte-identical: true\n") {
		t.Errorf("no rerun verdict at the end of:\n%s", out.String())
	}

	broken := scenarios[0]
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
