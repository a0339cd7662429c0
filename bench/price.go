package main

import "runtime"

// The price list (ROADMAP 1c): what each layer of the production preset
// costs per creation, found by switching that one layer off through its
// own public configuration and running one churn-shaped epoch without
// it. Every price is baseline minus ablated, so a positive number is
// what the layer costs.

// priceEpoch is the churn shape, twice as long as a gated churn epoch
// because each configuration gets only two of them.
func priceEpoch(a ablation) *load {
	return &load{shape{resident: 32, lifecycles: 250, queryPhase: 1}, inProcess(presetOptions{plants: 8, ablate: a})}
}

func priceList(seed int64) (map[string]float64, error) {
	// Each configuration runs twice on one seed and the cheaper run
	// counts: the counts are identical, and interference only adds CPU.
	run := func(epoch func(int64, *tracer) (*epochResult, error)) (*epochResult, error) {
		var best *epochResult
		for rep := 0; rep < 2; rep++ {
			e, err := epoch(epochSeed(seed, 1<<11), nil)
			if err != nil {
				return nil, err
			}
			if best == nil || e.timed.cpu < best.timed.cpu {
				best = e
			}
			runtime.GC()
		}
		return best, nil
	}
	base, err := run(priceEpoch(ablation{}).epoch)
	if err != nil {
		return nil, err
	}
	allocs := func(e *epochResult) float64 { return ratio(e.timed.allocs, float64(e.lifecycles)) }
	out := make(map[string]float64)
	for _, p := range []struct {
		layer string
		off   ablation
	}{
		{"journal", ablation{noJournal: true}},
		{"telemetry", ablation{noTelemetry: true}},
		{"admission", ablation{noAdmission: true}},
		{"lazyclone", ablation{linkClone: true}},
	} {
		e, err := run(priceEpoch(p.off).epoch)
		if err != nil {
			return nil, err
		}
		out["price."+p.layer+"_allocs"] = allocs(base) - allocs(e)
		out["price."+p.layer+"_cpu_us"] = base.cpuUSPerCreate() - e.cpuUSPerCreate()
		out["price."+p.layer+"_virt_s"] = mean(base.createVirt) - mean(e.createVirt)
	}

	// The wire: the same request mix through the daemons on loopback
	// and through direct calls, on four plants.
	wire, err := run((&load{shape{resident: 8, lifecycles: 25, queriesPer: 4, queryPhase: 2}, loopbackDaemons(4, 2)}).epoch)
	if err != nil {
		return nil, err
	}
	direct, err := run((&load{shape{resident: 16, lifecycles: 50, queriesPer: 4, queryPhase: 1}, inProcess(presetOptions{plants: 4})}).epoch)
	if err != nil {
		return nil, err
	}
	out["price.wire_allocs"] = allocs(wire) - allocs(direct)
	return out, nil
}
