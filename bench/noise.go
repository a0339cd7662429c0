package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the noise report reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// benchmark runs from bench/, from the one above it.
func loadSpec() (*benchmarkSpec, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		blob, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runSelf runs this binary on one workload, as the driver does, and
// returns the metrics of its last line. A process per run keeps the
// runs' heaps and resident-set peaks apart.
func runSelf(workload string, seed int, seconds float64) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var line struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if line.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: %d operations failed", workload, seed, line.Failed)
	}
	out := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		out[k] = v.Value
	}
	return out, nil
}

// driverQuartiles are the first and third quartile as the benchmark
// driver takes them — Python's statistics.quantiles(xs, n=4), which puts
// them at positions (n+1)/4 and 3(n+1)/4 of the sorted sample and so, on
// ten runs, further apart than quantile() does.
func driverQuartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// noiseReport runs every workload runs times per set, the same seeds in
// every set, and prints (as Markdown, for NOISE.md) each set's median
// and quartiles per metric, the seed-to-seed spread, how much worse the
// last set's median is than the first's, and the metric's bound. It
// fails when a gap exceeds its bound: the gate would have fired on
// identical code.
func noiseReport(sets, runs int, seconds float64) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	fmt.Printf("# Noise report\n\n%d sets × %d runs (seeds 1–%d in every set) × %g s per workload, one process per run.\n", sets, runs, runs, seconds)
	fmt.Printf("`spread` is the distance between a set's quartiles, as Python's `statistics.quantiles(values, n=4)` gives them, over its median — the driver's own measure; `gap` is how much worse the last set's median is than the first's.\n")
	exceeded := 0
	for _, w := range workloads() {
		// values[set][metric] = one value per run
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = make(map[string][]float64)
			for r := 1; r <= runs; r++ {
				ms, err := runSelf(w.name, r, seconds)
				if err != nil {
					return err
				}
				for k, v := range ms {
					values[s][k] = append(values[s][k], v)
				}
			}
		}
		fmt.Printf("\n## %s\n\n| metric | unit | set | median | q1 | q3 | spread | gap | bound |\n|---|---|---|---|---|---|---|---|---|\n", w.name)
		for _, m := range spec.EndToEnd {
			first, last := median(values[0][m.Name]), median(values[sets-1][m.Name])
			gap := ratio(last-first, first)
			if m.Better == "higher" {
				gap = -gap
			}
			for s := range values {
				xs := values[s][m.Name]
				gapCell := ""
				if s == sets-1 {
					gapCell = fmt.Sprintf("%+.2f%%", 100*gap)
					if gap > m.Bound {
						gapCell += " **over**"
						exceeded++
					}
				}
				q1, q3 := driverQuartiles(xs)
				fmt.Printf("| %s | %s | %d | %.6g | %.6g | %.6g | %.2f%% | %s | %.0f%% |\n",
					m.Name, m.Unit, s+1, median(xs), q1, q3, 100*ratio(q3-q1, median(xs)), gapCell, 100*m.Bound)
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between sets of identical code", exceeded)
	}
	return nil
}
