// The §3.4 cost-function walk-through as a runnable scenario: two
// plants, four host-only networks each, at most 32 VMs per plant,
// network cost 50 and compute cost 4 per hosted VM. One client domain
// requests VM after VM; the bid history shows the first plant winning
// until its load charge (4 × 13 = 52) exceeds the second plant's
// one-time network charge (50) — the crossover at request 14.
package main

import (
	"fmt"
	"log"
	"sort"

	"vmplants"
)

func main() {
	sys, err := vmplants.New(vmplants.Config{
		Plants:                   2,
		Seed:                     3,
		CostModel:                "network+compute",
		MaxVMsPerPlant:           32,
		HostOnlyNetworksPerPlant: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	hw := vmplants.Hardware{Arch: "x86", MemoryMB: 32, DiskMB: 2048}
	history := []vmplants.Action{
		{Op: "install-os", Target: vmplants.Guest, Params: map[string]string{"distro": "redhat-8.0"}},
	}
	if err := sys.PublishGolden("base", hw, vmplants.BackendVMware, history); err != nil {
		log.Fatal(err)
	}

	fmt.Println("request  bids (plant=cost)            winner")
	for i := 1; i <= 16; i++ {
		g, err := vmplants.NewGraph().
			Add("os", vmplants.Action{Op: "install-os", Target: vmplants.Guest,
				Params: map[string]string{"distro": "redhat-8.0"}}).
			Add("user", vmplants.Action{Op: "create-user", Target: vmplants.Guest,
				Params: map[string]string{"name": fmt.Sprintf("user%02d", i)}}, "os").
			Build()
		if err != nil {
			log.Fatal(err)
		}
		_, ad, err := sys.CreateVM(&vmplants.Spec{
			Name:     fmt.Sprintf("vm-%02d", i),
			Hardware: hw,
			Domain:   "ufl.edu",
			Graph:    g,
		})
		if err != nil {
			log.Fatal(err)
		}
		bids := sys.Bids()
		last := bids[len(bids)-1]
		plants := make([]string, 0, len(last.Costs))
		for plant := range last.Costs {
			plants = append(plants, plant)
		}
		sort.Strings(plants)
		bidStr := ""
		for _, plant := range plants {
			bidStr += fmt.Sprintf("%s=%.0f ", plant, float64(last.Costs[plant]))
		}
		fmt.Printf("%7d  %-28s → %s\n", i, bidStr, ad.GetString("Plant", "?"))
	}
	fmt.Println("\npaper: the same client keeps landing on one plant for 13 VMs;")
	fmt.Println("the 14th request crosses over to the second plant.")
}
