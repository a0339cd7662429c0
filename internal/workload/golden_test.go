package workload

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this run (make goldens)")

// gateFailures is a result's failed checks followed by its report, for
// a failing test's log; empty when the gate passes.
func gateFailures(res Result) string {
	failures := Failures(res.Checks())
	if len(failures) == 0 {
		return ""
	}
	return "  " + strings.Join(failures, "\n  ") + "\n" + strings.Join(res.Report(), "\n")
}

// TestScenariosPassGateAndMatchGolden runs every registered scenario at
// seed 42 under both presets. Each run must pass its own gate — the
// same Failures vmbench enforces — and its fingerprint must hash to the
// sha256 recorded in testdata/fingerprints.golden ("<scenario> <series>
// <sha256>" per line). A fingerprint digests every virtual-time
// observable of a run, so a changed hash is a changed behaviour; every
// scenario that diverges is reported, not the first. Every check ID the
// runs state, Gate's rerun check included, must be cited in
// EXPERIMENTS.md exactly once, in backquotes.
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
	ids := []string{"rerun.identical"} // Gate's own check
	for _, sc := range Scenarios() {
		for _, series := range []Series{Paper, Smoke} {
			key := sc.Name + " " + string(series)
			t.Run(sc.Name+"/"+string(series), func(t *testing.T) {
				res, err := sc.Run(42, series)
				if err != nil {
					t.Fatal(err)
				}
				if msg := gateFailures(res); msg != "" {
					t.Errorf("gate violations:\n%s", msg)
				}
				for _, c := range res.Checks() {
					ids = append(ids, c.id)
				}
				sum := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint())))
				fmt.Fprintf(&got, "%s %s\n", key, sum)
				if sum != want[key] && !*update {
					t.Errorf("fingerprint sha256 = %s, golden %s", sum, want[key])
				}
			})
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		if n := strings.Count(string(doc), "`"+id+"`"); n != 1 {
			t.Errorf("check ID %s cited %d times in EXPERIMENTS.md, want once", id, n)
		}
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
