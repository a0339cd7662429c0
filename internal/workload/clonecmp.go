package workload

import (
	"fmt"
	"slices"
	"sort"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// The clone-mode comparison measures what lazy cloning buys on the
// creation critical path: the same request stream is replayed through
// two fresh same-seed deployments, one cloning by full copy (the
// 2 GB-per-clone floor) and one cloning lazily (only config + redo +
// memory before the resume, the disk read from the node's image cache,
// which pulls each stored extent once behind the running VMs).
// The shop mints VMIDs deterministically, so the two runs create the
// same VMs and their end-state disks must hash byte-identically once
// hydration converges.

// cloneModeRun is one clone mode's measurement over a fresh deployment.
type cloneModeRun struct {
	Mode       vdisk.CloneMode
	ResumeSecs []float64 // client-observed creation latency per request
	Hashes     map[core.VMID]uint64

	DemandFaults      int64
	ExtentHits        int64         // clones that resumed with every extent in their node's cache
	ExtentFills       int64         // extents the nodes pulled into their caches
	Refills           int           // pulls of an extent a node already held at that checksum
	HydrationComplete stats.Summary // creation start → the clone's disk whole on its node
	ExtentStats       warehouse.ExtentStats
	AllHydrated       bool
	SharedResumes     int64 // clones that mapped a running VM's memory image
	Mappings          int   // memory-image mappings left once every VM is destroyed

	// The transcript digests every observable of the run; the pipeline's
	// fingerprint holds the lazy run's, so Gate's same-seed rerun shows
	// lazy hydration (demand faults included) is deterministic.
	transcript
}

func runCloneMode(seed int64, n, memMB int, mode vdisk.CloneMode) (*cloneModeRun, error) {
	hub := telemetry.New()
	d, err := NewDeployment(Options{
		Plants:        4,
		Seed:          seed,
		GoldenSizesMB: []int{memMB},
		Telemetry:     hub,
		PlantConfig:   plant.Config{CloneMode: mode},
	})
	if err != nil {
		return nil, err
	}
	recs, err := d.runCreationSeries(n, memMB)
	if err != nil {
		return nil, err
	}
	r := &cloneModeRun{Mode: mode, Hashes: make(map[core.VMID]uint64)}
	// The series drained the kernel, so every node's filler has finished:
	// the hashes below are converged end states.
	var ids []core.VMID
	for _, rec := range recs {
		if !rec.OK {
			return nil, fmt.Errorf("clone comparison: request %d: %s", rec.Seq, rec.Err)
		}
		r.ResumeSecs = append(r.ResumeSecs, rec.CreateSecs)
		ids = append(ids, rec.VMID)
		for _, pl := range d.Plants {
			if vm, ok := pl.VM(rec.VMID); ok {
				r.Hashes[rec.VMID] = vm.Disk().ContentHash()
			}
		}
	}
	r.AllHydrated = true
	for _, pl := range d.Plants {
		if !pl.AllHydrated() {
			r.AllHydrated = false
		}
	}
	hydrations := slices.DeleteFunc(hub.T().Spans(), func(sp telemetry.Span) bool { return sp.Name != "hydrate" })
	sort.Slice(hydrations, func(i, j int) bool { return hydrations[i].Attr("vmid") < hydrations[j].Attr("vmid") })
	r.DemandFaults = hub.Counter("plant.demand_faults").Value()
	r.ExtentHits = hub.Counter("plant.extent_cache_hits").Value()
	r.ExtentFills = hub.Counter("plant.extent_cache_fills").Value()
	r.HydrationComplete = hub.Histogram("plant.hydration_complete_secs").Snapshot()
	r.ExtentStats = d.Warehouse.ExtentStatsNow()
	r.SharedResumes = hub.Counter("plant.memimage_shared_resumes").Value()
	if err := d.Run(func(p *sim.Proc) error {
		for _, id := range ids {
			if err := d.Shop.Destroy(p, id); err != nil {
				return fmt.Errorf("clone comparison: destroy %s: %w", id, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, n := range d.Testbed.Nodes {
		r.Mappings += n.Mappings()
		r.Refills += n.Refills()
	}

	for i, id := range ids {
		r.logf("vm=%s resume=%.6f hash=%016x", id, r.ResumeSecs[i], r.Hashes[id])
	}
	for _, sp := range hydrations {
		r.logf("hyd vm=%s extents=%s faults=%s resumed=%.6f landed=%.6f err=%q",
			sp.Attr("vmid"), sp.Attr("extents"), sp.Attr("demand_faults"), sp.VStart.Seconds(), sp.VEnd.Seconds(), sp.Err)
	}
	r.logf("extents entries=%d refs=%d logical=%d physical=%d",
		r.ExtentStats.Entries, r.ExtentStats.Refs, r.ExtentStats.LogicalBytes, r.ExtentStats.PhysicalBytes)
	r.logf("shared_resumes=%d mappings_after_teardown=%d", r.SharedResumes, r.Mappings)
	r.logf("extent_cache hits=%d fills=%d refills=%d", r.ExtentHits, r.ExtentFills, r.Refills)
	return r, nil
}

// cloneComparison is the lazy-vs-eager measurement reported by the
// pipeline experiment.
type cloneComparison struct {
	VMs      int
	MemoryMB int

	Eager *cloneModeRun // vdisk.CloneByCopy — the full-copy floor
	Lazy  *cloneModeRun // vdisk.CloneByLazy

	EagerResume stats.Summary // creation latency under full copy
	LazyResume  stats.Summary // creation latency under lazy cloning

	// ResumeSpeedup is the eager p50 resume latency over the lazy p50:
	// how far laziness pushes the critical path below the copy floor.
	ResumeSpeedup float64

	// DedupRatio and SavedBytes snapshot the lazy run's extent store:
	// logical bytes referenced over physical bytes stored.
	DedupRatio float64
	SavedBytes int64

	// HashesMatch reports the two runs' per-VM end-state disks hashed
	// byte-identically; AllHydrated that every lazy clone converged.
	HashesMatch bool
	AllHydrated bool
}

// runCloneComparison replays the same n-request stream under eager
// full-copy and lazy cloning and compares critical-path latency and end
// state.
func runCloneComparison(seed int64, n, memMB int) (*cloneComparison, error) {
	eager, err := runCloneMode(seed, n, memMB, vdisk.CloneByCopy)
	if err != nil {
		return nil, err
	}
	lazy, err := runCloneMode(seed, n, memMB, vdisk.CloneByLazy)
	if err != nil {
		return nil, err
	}
	c := &cloneComparison{VMs: n, MemoryMB: memMB, Eager: eager, Lazy: lazy}
	c.EagerResume = stats.Summarize(eager.ResumeSecs)
	c.LazyResume = stats.Summarize(lazy.ResumeSecs)
	if c.LazyResume.P50 > 0 {
		c.ResumeSpeedup = c.EagerResume.P50 / c.LazyResume.P50
	}
	c.DedupRatio = lazy.ExtentStats.DedupRatio()
	c.SavedBytes = lazy.ExtentStats.SavedBytes()
	c.HashesMatch = len(eager.Hashes) == len(lazy.Hashes)
	for id, h := range eager.Hashes {
		if lazy.Hashes[id] != h {
			c.HashesMatch = false
		}
	}
	c.AllHydrated = lazy.AllHydrated
	return c, nil
}

// Report renders the comparison as printable lines.
func (c *cloneComparison) Report() []string {
	return []string{
		fmt.Sprintf("%d VMs of %d MB, eager full-copy vs lazy hydration:", c.VMs, c.MemoryMB),
		fmt.Sprintf("eager resume p50: %7.1f s   (full-copy floor)", c.EagerResume.P50),
		fmt.Sprintf("lazy resume p50:  %7.1f s   (%.1f× faster to a usable VM)", c.LazyResume.P50, c.ResumeSpeedup),
		fmt.Sprintf("lazy complete p50:%7.1f s   (disk whole in the node's image cache)", c.Lazy.HydrationComplete.P50),
		fmt.Sprintf("demand faults: %d, extent cache hits: %d, extent fills: %d (%d refills)",
			c.Lazy.DemandFaults, c.Lazy.ExtentHits, c.Lazy.ExtentFills, c.Lazy.Refills),
		fmt.Sprintf("extent store: %d logical MB → %d physical MB (%.1f× dedup, %d MB saved)",
			c.Lazy.ExtentStats.LogicalBytes>>20, c.Lazy.ExtentStats.PhysicalBytes>>20,
			c.DedupRatio, c.SavedBytes>>20),
	}
}
