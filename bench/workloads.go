package main

// workloads are the benchmark's four traffic mixes; BENCHMARK.json
// repeats their names and reasons.
func workloads() []*workloadDef {
	return []*workloadDef{
		{name: "churn", exactEpochs: 96,
			load: load{shape{resident: 32, lifecycles: 125, queryPhase: 500},
				inProcess(presetOptions{plants: 8})},
			why: "serial Shop.Create of 32/64/256 MB workspaces on 8 plants: the paper's request shape, nothing overlaps, so each layer's per-creation cost shows undiluted"},
		{name: "batch", exactEpochs: 24,
			load: load{shape{batch: 64, lifecycles: 8 * 64, queryPhase: 1000},
				inProcess(presetOptions{plants: 8})},
			why: "CreateMany in batches of 64: dozens of creations in flight, so admission gates, bid rounds, journal syncs and NFS contention do work churn never queues for"},
		{name: "catalog", exactEpochs: 16,
			load: load{shape{resident: 8, lifecycles: 150, queriesPer: 4, queryPhase: 1000, users: 64, zipfS: 1.1},
				inProcess(presetOptions{plants: 4, publishBack: true, catalogSeeds: 30, derivedBudgetMB: 2400})},
			why: "Zipf over 64 users' personalised DAGs with publish-back and 30 extra seed images on 4 plants: matching, DAG evaluation and warehouse reads beside writes dominate"},
		{name: "tcp", exactEpochs: 12,
			load: load{shape{resident: 8, lifecycles: 50, queriesPer: 4, queryPhase: 200},
				loopbackDaemons(4, 2)},
			why: "vmshopd + 4 vmplantd wired on loopback with 2 client connections: the only workload with proto XML, service.Runner's mutex and real sockets on the path, reads contending with writes"},
	}
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
