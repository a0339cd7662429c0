package vmplants

// The benchmark harness: one sub-benchmark per entry of the scenario
// registry (see EXPERIMENTS.md for the index), each running that
// experiment at paper scale and failing when the run breaks the claim
// its result enforces. The tables themselves are `go run ./cmd/vmbench`.
//
//	go test -bench=. -benchmem
//
// Wall-clock cost is seconds per benchmark: the experiments run under a
// discrete-event kernel, so the "8-node cluster hours" complete in
// simulation time.

import (
	"strings"
	"testing"

	"vmplants/internal/workload"
)

func BenchmarkScenarios(b *testing.B) {
	for _, sc := range workload.Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sc.Run(42, workload.Paper)
				if err != nil {
					b.Fatal(err)
				}
				if v := workload.Failures(res.Checks()); len(v) != 0 {
					b.Fatalf("gate violations:\n  %s", strings.Join(v, "\n  "))
				}
			}
		})
	}
}
