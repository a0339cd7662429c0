package main

import (
	"fmt"
	"math"
)

// allocTolerance is how far the allocation metrics of two same-seed
// runs may differ. They cannot repeat bit for bit: Go seeds every map's
// hash at random, so how many overflow buckets a map grows — each an
// allocation — differs from run to run, and the runtime's own
// goroutines allocate on the side. Measured differences are a few parts
// per million; a part per thousand is a tenth of the tightest bound on
// these metrics.
const allocTolerance = 1e-3

// selfCheck runs churn, batch and catalog twice on one seed, a few
// epochs each, and reports every virtual-clock or count quantity that
// differs between the two runs, by epoch: the virtual-clock quantities
// and operation counts must be identical, the allocation counts within
// allocTolerance. These workloads run inside one simulation kernel, so
// any difference is nondeterminism in the program or the benchmark;
// tcp has real sockets and two clients, and is exempt.
func selfCheck(seed int64, epochs int) []string {
	var diffs []string
	for _, w := range workloads() {
		if w.name == "tcp" {
			continue
		}
		var runs [2]*gatedRun
		for i := range runs {
			g, err := runGated(w, runOptions{seed: seed, epochs: epochs})
			if err != nil {
				return append(diffs, err.Error())
			}
			runs[i] = g
		}
		for e := range runs[0].epochs {
			a, b := runs[0].epochs[e], runs[1].epochs[e]
			cmp := func(metric string, x, y float64) {
				if x != y {
					diffs = append(diffs, fmt.Sprintf("%s epoch %d: %s differs: %v vs %v", w.name, e, metric, x, y))
				}
			}
			cmp("creations", float64(a.creates), float64(b.creates))
			cmp("operations attempted", float64(a.attempted), float64(b.attempted))
			cmp("operations failed", float64(a.failed), float64(b.failed))
			cmp("virtual seconds of the timed phase", a.timedVirt, b.timedVirt)
			cmp("journal records replayed", float64(a.replayed), float64(b.replayed))
			near := func(metric string, x, y float64) {
				if math.Abs(x-y) > allocTolerance*math.Max(x, y) {
					diffs = append(diffs, fmt.Sprintf("%s epoch %d: %s differs by more than %g: %v vs %v", w.name, e, metric, allocTolerance, x, y))
				}
			}
			near("allocations in the timed phase", a.timed.allocs, b.timed.allocs)
			near("KB allocated in the timed phase", a.timed.allocKB, b.timed.allocKB)
			near("allocations in the query phase", a.query.allocs, b.query.allocs)
			for i := 0; i < min(len(a.createVirt), len(b.createVirt)); i++ {
				if a.createVirt[i] != b.createVirt[i] {
					cmp(fmt.Sprintf("virtual latency of creation %d", i), a.createVirt[i], b.createVirt[i])
					break
				}
			}
		}
		am, bm := runs[0].endToEnd(), runs[1].endToEnd()
		for i := range am {
			x, y := am[i].value, bm[i].value
			switch {
			case exactNames[am[i].name] && x != y:
				diffs = append(diffs, fmt.Sprintf("%s all epochs: %s differs: %v vs %v", w.name, am[i].name, x, y))
			case allocNames[am[i].name] && math.Abs(x-y) > allocTolerance*math.Max(x, y):
				diffs = append(diffs, fmt.Sprintf("%s all epochs: %s differs by more than %g: %v vs %v", w.name, am[i].name, allocTolerance, x, y))
			}
		}
	}
	return diffs
}
