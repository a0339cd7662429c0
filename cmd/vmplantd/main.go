// Command vmplantd runs one VMPlant daemon: it serves the plant-side
// protocol (estimate, create, query, collect) on a TCP port, optionally
// exposes a VNET server for client-domain overlay bridging, and hosts
// the simulated node substrate beneath. It runs the daemons' preset
// (workload.DaemonPlant): the golden In-VIGO workspace images of 32, 64
// and 256 MB are published at startup, creations clone lazily, and
// plant and warehouse events are journaled for crash-restart recovery.
//
// Usage:
//
//	vmplantd -listen :7001 -name plantA
//	vmplantd -listen :7001 -vnet :7101 -creds ufl.edu=secret
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"vmplants/internal/journal"
	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/vnet"
	"vmplants/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", ":7001", "plant service listen address")
		name     = flag.String("name", "plant0", "plant name")
		cell     = flag.String("cell", "", "federation cell this plant serves (prefixes the plant name, e.g. cellA/plant0)")
		seed     = flag.Int64("seed", 1, "substrate random seed")
		vnetAddr = flag.String("vnet", "", "VNET server listen address (empty = disabled)")
		creds    = flag.String("creds", "", "VNET credentials, comma-separated domain=token pairs")
		debug    = flag.String("debug", ":7071", "debug HTTP listen address for /metrics and /debug/traces (empty = disabled)")
		pubBack  = flag.Bool("publish-back", false, "checkpoint long-residual creations back to the warehouse as derived golden images")
		budgetMB = flag.Int64("warehouse-budget", 0, "warehouse byte budget in MB beyond the seed images (0 = unlimited)")
		scrubInt = flag.Duration("scrub", 0, "wall-clock interval between warehouse integrity scrub passes (0 = disabled)")
		replica  = flag.Bool("replica", false, "mirror seed extents to a replica device so the scrubber can repair them")
	)
	flag.Parse()

	if *cell != "" {
		// Cell-qualified names keep plants distinct when several cells
		// run the same node naming scheme (node00, node01, …).
		*name = *cell + "/" + *name
	}
	cfg, images, err := workload.DaemonPlant()
	if err != nil {
		log.Fatalf("vmplantd: golden images: %v", err)
	}
	cfg.PublishBack = *pubBack
	d := service.NewDaemon(*name, workload.DefaultSLOObjectives()...)
	hub, runner := d.Hub, d.Runner
	pl, err := d.HostPlant(*name, *seed, cfg, images...)
	if err != nil {
		log.Fatalf("vmplantd: publish: %v", err)
	}
	wh := pl.Warehouse()
	for _, im := range images {
		log.Printf("published golden image %s", im.Name)
	}
	if *budgetMB > 0 {
		wh.SetCapacity(wh.BytesUsed() + *budgetMB<<20)
	}

	// One event log per node, shared by the plant daemon and its
	// warehouse view: VM lifecycle, catalog and quarantine records
	// interleave in one stream on the node's local disk. Attaching after
	// publish imports the already-published catalog.
	jnl := journal.Open(pl.Node().LocalDisk(), "journal/"+*name)
	jnl.SetTelemetry(hub)
	pl.SetJournal(jnl)
	wh.SetJournal(jnl)
	log.Printf("journaling plant and warehouse events to %s", jnl.Dir())

	if *replica {
		wh.SetReplica(storage.NewVolume("replica",
			storage.NewDevice("replica-disk", 40<<20, 2*time.Millisecond)))
	}
	if *scrubInt > 0 {
		// The daemon kernel runs to quiescence per request, so the
		// scrubber cannot live there as a forever process; a wall-clock
		// ticker drives one bounded pass at a time through the runner.
		go func() {
			for range time.Tick(*scrubInt) {
				if err := runner.Do("warehouse/scrub", func(p *sim.Proc) {
					wh.ScrubPass(p)
				}); err != nil {
					log.Printf("vmplantd: scrub pass: %v", err)
				}
			}
		}()
		log.Printf("warehouse scrubber every %v (replica=%v)", *scrubInt, *replica)
	}

	if *debug != "" {
		if _, err := d.ServeDebug(*debug, nil, jnl, wh); err != nil {
			log.Fatalf("vmplantd: %v", err)
		}
	}

	if *vnetAddr != "" {
		credTable := vnet.Credentials{}
		for _, pair := range strings.Split(*creds, ",") {
			if pair == "" {
				continue
			}
			domain, token, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("vmplantd: bad credential %q (want domain=token)", pair)
			}
			credTable[domain] = token
		}
		// A domain bridges to the host-only network it owns on this plant.
		srv := vnet.NewServer(credTable, pl.Networks().Switch)
		vl, err := net.Listen("tcp", *vnetAddr)
		if err != nil {
			log.Fatalf("vmplantd: vnet listen: %v", err)
		}
		log.Printf("VNET server on %s (%d domains)", vl.Addr(), len(credTable))
		go srv.Serve(vl)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("vmplantd: listen: %v", err)
	}
	fmt.Printf("vmplantd %s serving on %s (cost model %s, %d networks, max %d VMs)\n",
		*name, l.Addr(), cfg.CostModel.Name(), cfg.HostOnlyNetworks, cfg.MaxVMs)
	proto.Serve(l, service.NewPlantHandler(runner, pl))
}
