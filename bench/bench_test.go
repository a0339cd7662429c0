package main

import (
	"encoding/json"
	"os"
	"testing"
)

// Two same-seed runs of the in-process workloads must agree on every
// virtual-clock and count quantity (bench --selfcheck, one epoch each).
func TestSelfCheck(t *testing.T) {
	for _, d := range selfCheck(3, 1) {
		t.Error(d)
	}
}

// BENCHMARK.json names what this program prints; the two must not drift.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads() {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in the program, BENCHMARK.json disagrees", i, w.name)
		}
	}
	g, err := runGated(workloadByName("churn"), runOptions{seed: 1, epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var have []named
	for _, m := range g.endToEnd() {
		have = append(have, named{m.name, m.unit})
	}
	compare(t, "end_to_end", have, spec.EndToEnd)
	have = nil
	for _, nu := range perLayerUnits {
		have = append(have, named{nu[0], nu[1]})
	}
	compare(t, "per_layer", have, spec.PerLayer)
}

func compare[T comparable](t *testing.T, what string, program, file []T) {
	t.Helper()
	if len(program) != len(file) {
		t.Errorf("%s: the program prints %d metrics, BENCHMARK.json lists %d", what, len(program), len(file))
	}
	for i := 0; i < min(len(program), len(file)); i++ {
		if program[i] != file[i] {
			t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, program[i], file[i])
		}
	}
}
