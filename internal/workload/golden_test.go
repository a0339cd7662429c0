package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// pipelineFingerprint digests the pipeline experiment, which has no
// single Fingerprint field: the batch sweep, the serial-vs-batch
// creation logs, and both clone-mode runs.
func pipelineFingerprint(res *PipelineResult, cmp *CloneComparison) string {
	var lines []string
	for _, bp := range res.Batches {
		lines = append(lines, fmt.Sprintf("batch size=%d ok=%d failed=%d makespan=%.6f hits=%d misses=%d admwait_p99=%.6f max_inflight=%d",
			bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight))
	}
	lines = append(lines, "serial:", res.SerialFingerprint, "batch:", res.BatchFingerprint,
		"eager:", cmp.Eager.Fingerprint, "lazy:", cmp.Lazy.Fingerprint)
	return strings.Join(lines, "\n")
}

// goldenRuns is every gated experiment at both vmbench presets
// (-series paper, -series smoke), returning its fingerprint.
var goldenRuns = []struct {
	name string
	run  func(seed int64, smoke bool) (string, error)
}{
	{"chaos", func(seed int64, smoke bool) (string, error) {
		opts := ChaosOptions{}
		if smoke {
			opts.Requests = 16
		}
		res, err := RunChaos(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"pipeline", func(seed int64, smoke bool) (string, error) {
		opts, vms := PipelineOptions{}, 8
		if smoke {
			opts.Sizes, vms = []int{1, 4, 16}, 4
		}
		res, err := RunPipeline(seed, opts)
		if err != nil {
			return "", err
		}
		cmp, err := RunCloneComparison(seed, vms, 64)
		if err != nil {
			return "", err
		}
		return pipelineFingerprint(res, cmp), nil
	}},
	{"warm", func(seed int64, smoke bool) (string, error) {
		opts := WarmOptions{}
		if smoke {
			opts = SmokeWarmOptions()
		}
		res, err := RunWarm(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"scrub", func(seed int64, smoke bool) (string, error) {
		opts := ScrubOptions{}
		if smoke {
			opts = SmokeScrubOptions()
		}
		res, err := RunScrub(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"slo", func(seed int64, smoke bool) (string, error) {
		opts := SLOOptions{}
		if smoke {
			opts = SLOOptions{WarmBatch: 8, ChaosRequests: 8}
		}
		res, err := RunSLO(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"restart", func(seed int64, smoke bool) (string, error) {
		opts := RestartOptions{}
		if smoke {
			opts.Requests = 12
		}
		res, err := RunRestart(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"federation", func(seed int64, smoke bool) (string, error) {
		opts := FederationOptions{}
		if smoke {
			opts = SmokeFederationOptions()
		}
		res, err := RunFederation(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
	{"diurnal", func(seed int64, smoke bool) (string, error) {
		opts := DiurnalOptions{}
		if smoke {
			opts = SmokeDiurnalOptions()
		}
		res, err := RunDiurnal(seed, opts)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	}},
}

// TestFingerprintsMatchGolden pins every gated experiment's fingerprint
// at seed 42, both presets, to the sha256 recorded in
// testdata/fingerprints.golden ("<experiment> <series> <sha256>" per
// line). A fingerprint digests every virtual-time observable of a run,
// so a changed hash is a changed behaviour.
func TestFingerprintsMatchGolden(t *testing.T) {
	blob, err := os.ReadFile("testdata/fingerprints.golden")
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
	if len(want) != 2*len(goldenRuns) {
		t.Fatalf("golden holds %d hashes, want %d", len(want), 2*len(goldenRuns))
	}
	for _, g := range goldenRuns {
		for _, series := range []string{"paper", "smoke"} {
			t.Run(g.name+"/"+series, func(t *testing.T) {
				fp, err := g.run(42, series == "smoke")
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != want[g.name+" "+series] {
					t.Errorf("fingerprint sha256 = %s, golden %s", got, want[g.name+" "+series])
				}
			})
		}
	}
}
