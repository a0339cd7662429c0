package workload

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this run (make goldens)")

// gateFailures renders a result's violations with its report, for a
// failing test's log.
func gateFailures(res Result) string {
	return "  " + strings.Join(res.Violations(), "\n  ") + "\n" + strings.Join(res.Report(), "\n")
}

// TestScenariosPassGateAndMatchGolden runs every registered scenario at
// seed 42 under both presets. Each run must pass its own gate — the
// same Violations() vmbench enforces — and its fingerprint must hash to
// the sha256 recorded in testdata/fingerprints.golden ("<scenario>
// <series> <sha256>" per line). A fingerprint digests every
// virtual-time observable of a run, so a changed hash is a changed
// behaviour; every scenario that diverges is reported, not the first.
func TestScenariosPassGateAndMatchGolden(t *testing.T) {
	const golden = "testdata/fingerprints.golden"
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	if len(want) != 2*len(Scenarios()) && !*update {
		t.Fatalf("golden holds %d hashes, want %d", len(want), 2*len(Scenarios()))
	}
	var got strings.Builder
	for _, sc := range Scenarios() {
		for _, series := range []Series{Paper, Smoke} {
			key := sc.Name + " " + string(series)
			t.Run(sc.Name+"/"+string(series), func(t *testing.T) {
				res, err := sc.Run(42, series)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations()) != 0 {
					t.Errorf("gate violations:\n%s", gateFailures(res))
				}
				sum := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint())))
				fmt.Fprintf(&got, "%s %s\n", key, sum)
				if sum != want[key] && !*update {
					t.Errorf("fingerprint sha256 = %s, golden %s", sum, want[key])
				}
			})
		}
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
