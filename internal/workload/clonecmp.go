package workload

import (
	"fmt"
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
// memory before the resume, extents hydrated behind the running VM).
// The shop mints VMIDs deterministically, so the two runs create the
// same VMs and their end-state disks must hash byte-identically once
// hydration converges.

// cloneModeRun is one clone mode's measurement over a fresh deployment.
type cloneModeRun struct {
	Mode       vdisk.CloneMode
	ResumeSecs []float64 // client-observed creation latency per request
	Hashes     map[core.VMID]uint64
	Hydrations []plant.HydrationStats

	DemandFaults    int64
	HydratedExtents int64
	HydrationLag    stats.Summary // background extent lag behind the resume
	ExtentStats     warehouse.ExtentStats
	AllHydrated     bool
	SharedResumes   int64 // clones that mapped a running VM's memory image
	Mappings        int   // memory-image mappings left once every VM is destroyed

	// The transcript digests every observable of the run; equal
	// fingerprints across same-seed reruns mean lazy hydration
	// (demand faults included) is deterministic.
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
	// The series drained the kernel, so every background hydrator has
	// finished: the hashes below are converged end states.
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
		r.Hydrations = append(r.Hydrations, pl.HydrationLog()...)
		if !pl.AllHydrated() {
			r.AllHydrated = false
		}
	}
	sort.Slice(r.Hydrations, func(i, j int) bool { return r.Hydrations[i].VMID < r.Hydrations[j].VMID })
	r.DemandFaults = hub.Counter("plant.demand_faults").Value()
	r.HydratedExtents = hub.Counter("plant.hydrated_extents").Value()
	r.HydrationLag = hub.Histogram("plant.hydration_lag_secs").Snapshot()
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
	}

	for i, id := range ids {
		r.logf("vm=%s resume=%.6f hash=%016x", id, r.ResumeSecs[i], r.Hashes[id])
	}
	for _, hs := range r.Hydrations {
		r.logf("hyd vm=%s extents=%d faults=%d resume=%.6f complete=%.6f aborted=%v",
			hs.VMID, hs.Extents, hs.DemandFaults, hs.ResumeSecs, hs.CompleteSecs, hs.Aborted)
	}
	r.logf("extents entries=%d refs=%d logical=%d physical=%d",
		r.ExtentStats.Entries, r.ExtentStats.Refs, r.ExtentStats.LogicalBytes, r.ExtentStats.PhysicalBytes)
	r.logf("shared_resumes=%d mappings_after_teardown=%d", r.SharedResumes, r.Mappings)
	return r, nil
}

// cloneComparison is the lazy-vs-eager measurement reported by the
// pipeline experiment.
type cloneComparison struct {
	VMs      int
	MemoryMB int

	Eager *cloneModeRun // vdisk.CloneByCopy — the full-copy floor
	Lazy  *cloneModeRun // vdisk.CloneByLazy

	EagerResume  stats.Summary // creation latency under full copy
	LazyResume   stats.Summary // creation latency under lazy cloning
	LazyComplete stats.Summary // creation start → last extent hydrated

	// ResumeSpeedup is the eager p50 resume latency over the lazy p50:
	// how far laziness pushes the critical path below the copy floor.
	ResumeSpeedup float64

	// DedupRatio and SavedBytes snapshot the lazy run's extent store:
	// logical bytes referenced over physical bytes stored.
	DedupRatio float64
	SavedBytes int64

	// HashesMatch reports the two runs' per-VM end-state disks hashed
	// byte-identically; AllHydrated that every lazy clone converged;
	// DeterminismOK that a same-seed lazy rerun was byte-identical.
	HashesMatch   bool
	AllHydrated   bool
	DeterminismOK bool
}

// runCloneComparison replays the same n-request stream under eager
// full-copy and lazy cloning (plus a lazy same-seed rerun for the
// determinism check) and compares critical-path latency and end state.
func runCloneComparison(seed int64, n, memMB int) (*cloneComparison, error) {
	eager, err := runCloneMode(seed, n, memMB, vdisk.CloneByCopy)
	if err != nil {
		return nil, err
	}
	lazy, rerunSame, err := sameSeed(func() (*cloneModeRun, error) {
		return runCloneMode(seed, n, memMB, vdisk.CloneByLazy)
	})
	if err != nil {
		return nil, err
	}
	c := &cloneComparison{VMs: n, MemoryMB: memMB, Eager: eager, Lazy: lazy}
	c.EagerResume = stats.Summarize(eager.ResumeSecs)
	c.LazyResume = stats.Summarize(lazy.ResumeSecs)
	var completes []float64
	for _, hs := range lazy.Hydrations {
		completes = append(completes, hs.CompleteSecs)
	}
	c.LazyComplete = stats.Summarize(completes)
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
	c.DeterminismOK = rerunSame
	return c, nil
}

// Report renders the comparison as printable lines.
func (c *cloneComparison) Report() []string {
	return []string{
		fmt.Sprintf("%d VMs of %d MB, eager full-copy vs lazy hydration:", c.VMs, c.MemoryMB),
		fmt.Sprintf("eager resume p50: %7.1f s   (full-copy floor)", c.EagerResume.P50),
		fmt.Sprintf("lazy resume p50:  %7.1f s   (%.1f× faster to a usable VM)", c.LazyResume.P50, c.ResumeSpeedup),
		fmt.Sprintf("lazy complete p50:%7.1f s   (last extent hydrated)", c.LazyComplete.P50),
		fmt.Sprintf("demand faults: %d, hydrated extents: %d, hydration lag p90: %.1f s",
			c.Lazy.DemandFaults, c.Lazy.HydratedExtents, c.Lazy.HydrationLag.P90),
		fmt.Sprintf("extent store: %d logical MB → %d physical MB (%.1f× dedup, %d MB saved)",
			c.Lazy.ExtentStats.LogicalBytes>>20, c.Lazy.ExtentStats.PhysicalBytes>>20,
			c.DedupRatio, c.SavedBytes>>20),
		fmt.Sprintf("end-state hashes identical: %v; hydration converged: %v; lazy rerun byte-identical: %v",
			c.HashesMatch, c.AllHydrated, c.DeterminismOK),
	}
}
