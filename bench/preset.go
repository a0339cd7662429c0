package main

import (
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/workload"
)

// ablation switches one layer of the production preset off through the
// layer's own public configuration; the price list runs one epoch per
// field. The zero value is the full preset.
type ablation struct {
	noJournal   bool // no shop, plant or warehouse journal
	noTelemetry bool // nil hub: no tracer, flight ring, metrics or SLO engine
	noAdmission bool // shop admission gate removed
	linkClone   bool // vdisk.CloneByLink in place of CloneByLazy
}

// presetOptions is what differs between the in-process workloads.
type presetOptions struct {
	plants      int
	publishBack bool
	// catalogSeeds adds that many randomly configured seed images.
	catalogSeeds int
	// derivedBudgetMB, when non-zero, caps the warehouse at its seeded
	// size plus this much room for derived images.
	derivedBudgetMB int
	ablate          ablation
}

// site is one epoch's deployment in the production preset: every layer
// the daemons switch on (hub with tracer, flight recorder and SLO
// engine; shop, plant and warehouse journals; shop admission gate; lazy
// cloning; the clone integrity gate, which plants always run).
type site struct {
	d    *workload.Deployment
	hub  *telemetry.Hub
	shop *shop.Shop
	jnls []*journal.Journal // shop's first, when journaling is on
	// extentRefs is the extent store's reference count after the seed
	// images were published: the level every epoch must return to.
	extentRefs int

	// owners is the Zipf stream, one owner per request of the epoch;
	// nil when requests have no owner.
	owners []int
	// p is the client process while a phase runs.
	p *sim.Proc
	// createVirt collects the current phase's creation latencies.
	createVirt []float64
}

// shopAdmission is the preset's front door. Sixteen creations in flight
// keeps every plant's clone slots fed on eight plants; the queue bound
// is far above any batch the benchmark submits, so nothing is shed
// unless a change makes the gate slower.
var shopAdmission = shop.AdmissionConfig{MaxInflight: 16, MaxQueue: 1024}

// newSite builds the preset. wrap, when non-nil, interposes on each
// plant handle before the shop sees it (the traced run's spans).
func newSite(seed int64, o presetOptions, wrap func(shop.PlantHandle) shop.PlantHandle) (*site, error) {
	var hub *telemetry.Hub
	if !o.ablate.noTelemetry {
		hub = telemetry.New()
		hub.SLO = telemetry.NewSLOEngine(hub.M(), workload.DefaultSLOObjectives()...)
	}
	mode := vdisk.CloneByLazy
	if o.ablate.linkClone {
		mode = vdisk.CloneByLink
	}
	d, err := workload.NewDeployment(workload.Options{
		Plants:    o.plants,
		Seed:      seed,
		Telemetry: hub,
		PlantConfig: plant.Config{
			MaxVMs:           32,
			HostOnlyNetworks: 4,
			CloneMode:        mode,
			PublishBack:      o.publishBack,
		},
	})
	if err != nil {
		return nil, err
	}
	s := &site{d: d, hub: hub}
	if o.catalogSeeds > 0 {
		rng := sim.NewRNG(mix64(seed, 11))
		if err := publishCatalogSeeds(d.Warehouse, d.Opts.Backend, d.Opts.GoldenDiskMB, o.catalogSeeds, rng); err != nil {
			return nil, err
		}
	}
	if o.derivedBudgetMB > 0 {
		d.Warehouse.SetCapacity(d.Warehouse.BytesUsed() + int64(o.derivedBudgetMB)<<20)
	}

	// The deployment's own shop is discarded for one built here over
	// handles the benchmark constructs, exactly as NewDeployment wires
	// it (same name, same tie-break seed).
	handles := make([]shop.PlantHandle, len(d.Handles))
	for i, h := range d.Handles {
		handles[i] = h
		if wrap != nil {
			handles[i] = wrap(h)
		}
	}
	s.shop = shop.New("shop", handles, seed+1)
	s.shop.SetTelemetry(hub)
	if !o.ablate.noAdmission {
		s.shop.SetAdmission(shopAdmission)
	}

	if !o.ablate.noJournal {
		// The shop's log on its own volume, each plant's on its node's
		// local disk, the warehouse's on the shared warehouse volume —
		// the layout the restart gate tests.
		logVol := storage.NewVolume("shop-log", storage.NewDevice("shop-log-disk", 64<<20, 100*time.Microsecond))
		sj := journal.Open(logVol, "journal/shop")
		sj.SetTelemetry(hub)
		s.shop.SetJournal(sj)
		s.jnls = append(s.jnls, sj)
		for i, pl := range d.Plants {
			pj := journal.Open(d.Testbed.Nodes[i].LocalDisk(), "journal/"+pl.Name())
			pj.SetTelemetry(hub)
			pl.SetJournal(pj)
			s.jnls = append(s.jnls, pj)
		}
		wj := journal.Open(d.Testbed.Warehouse, "journal/warehouse")
		wj.SetTelemetry(hub)
		d.Warehouse.SetJournal(wj)
		s.jnls = append(s.jnls, wj)
	}
	s.extentRefs = d.Warehouse.ExtentStatsNow().Refs
	return s, nil
}

// auditEmpty checks what must hold once an epoch has destroyed every VM
// it created: no plant knows any of them, no VM and no committed memory
// is left on any node, and the extent store is back at its post-publish
// reference count (derived images share their parent's extents and
// take no references of their own).
func (s *site) auditEmpty(destroyed []core.VMID) error {
	for i, n := range s.d.Testbed.Nodes {
		pl := s.d.Plants[i]
		for _, id := range destroyed {
			if _, found := pl.VM(id); found {
				return fmt.Errorf("VM %s still on plant %s after its destroy", id, pl.Name())
			}
		}
		if n.VMs() != 0 || n.CommittedMB() != 0 {
			return fmt.Errorf("node %s: %d VMs, %d MB committed after teardown", n.Name(), n.VMs(), n.CommittedMB())
		}
		if got := pl.ActiveVMs(); got != 0 {
			return fmt.Errorf("plant %s: %d active VMs after teardown", pl.Name(), got)
		}
	}
	if got := s.d.Warehouse.ExtentStatsNow().Refs; got != s.extentRefs {
		return fmt.Errorf("extent refcounts: %d, want the post-publish %d", got, s.extentRefs)
	}
	return nil
}
