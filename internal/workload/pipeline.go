package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// pipelineParams are the pipeline scenario's presets: the batch sizes
// to sweep and how many VMs the clone-mode comparison creates.
type pipelineParams struct {
	sizes    []int
	cloneVMs int
}

// pipelineMemMB is the workspace size of both halves of the scenario.
const pipelineMemMB = 64

// batchPoint is one batch size's measurement, taken on a fresh
// deployment.
type batchPoint struct {
	Size         int
	OK           int
	Failed       int
	MakespanSecs float64 // first submit → last response, virtual time
	Throughput   float64 // successful creations per virtual second
	CacheHits    int64   // clone opens that reused their epoch's context
	CacheMisses  int64   // clone opens that verified and built one
	// AdmissionWait summarizes plant.admission_wait_secs: how long
	// creations queued for a clone slot.
	AdmissionWait stats.Summary
	// MaxInflight is the highest concurrently admitted clone count seen
	// on any single plant.
	MaxInflight int
}

// pipelineResult is the full sweep and the lazy-vs-eager clone
// comparison.
type pipelineResult struct {
	Batches    []batchPoint
	Comparison *cloneComparison
}

// runPipeline is the batched-creation gate: what the creation pipeline
// buys in creations per virtual second at growing batch sizes on 8
// plants — a fresh deployment per size so points are independent; only
// the first clone of the one golden image may verify it, and batch 16
// must beat batch 1 by >= 3x — plus the lazy-vs-eager clone comparison.
func runPipeline(seed int64, par pipelineParams) (*pipelineResult, error) {
	res := &pipelineResult{}
	for i, size := range par.sizes {
		pt, err := runBatchPoint(seed+int64(i)*1000, size)
		if err != nil {
			return nil, err
		}
		res.Batches = append(res.Batches, pt)
	}
	var err error
	if res.Comparison, err = runCloneComparison(seed, par.cloneVMs, pipelineMemMB); err != nil {
		return nil, err
	}
	return res, nil
}

// Fingerprint digests the batch sweep and both clone-mode runs.
func (r *pipelineResult) Fingerprint() string {
	var lines []string
	for _, bp := range r.Batches {
		lines = append(lines, fmt.Sprintf("batch size=%d ok=%d failed=%d makespan=%.6f hits=%d misses=%d admwait_p99=%.6f max_inflight=%d",
			bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight))
	}
	lines = append(lines, "eager:", r.Comparison.Eager.Fingerprint(), "lazy:", r.Comparison.Lazy.Fingerprint())
	return strings.Join(lines, "\n")
}

// Report renders the sweep table and the comparison as printable lines.
func (r *pipelineResult) Report() []string {
	out := []string{fmt.Sprintf("%5s %4s %4s %12s %14s %10s %14s %12s",
		"batch", "ok", "fail", "makespan(s)", "thruput(vm/s)", "cache h/m", "adm-wait p99", "max-inflight")}
	for _, bp := range r.Batches {
		out = append(out, fmt.Sprintf("%5d %4d %4d %12.1f %14.4f %6d/%-4d %13.1fs %12d",
			bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.Throughput,
			bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight))
	}
	out = append(out, "", "Lazy vs eager cloning (content-addressed extent store):")
	return append(out, r.Comparison.Report()...)
}

func (r *pipelineResult) Checks() []Check {
	unserved, unverified, serial := 0, 0, 0
	throughput := make(map[int]float64)
	for _, b := range r.Batches {
		throughput[b.Size] = b.Throughput
		unserved += b.Size - b.OK
		// One golden image: the first clone misses, the rest must hit.
		if b.CacheMisses != 1 || b.CacheHits != int64(b.Size-1) {
			unverified++
		}
		// The derived per-plant cap is 3 on the default node; a batch of
		// 16 over 8 plants must drive plants into concurrent cloning.
		if b.Size >= 16 && b.MaxInflight < 2 {
			serial++
		}
	}
	c := r.Comparison
	return []Check{
		equal(invariant("pipeline.served", "batched creations not served"), unserved, 0),
		equal(invariant("pipeline.verify-once", "batches whose clones did not verify the image once"), unverified, 0),
		equal(invariant("pipeline.concurrency", "batches of 16 and up that never cloned concurrently"), serial, 0),
		atLeast(claim("pipeline.batch-speedup", "", "batch-16 over batch-1 throughput (×)"), ratio(throughput[16], throughput[1]), 3),
		atLeast(claim("pipeline.lazy-speedup", "", "eager over lazy resume p50 (×)"), c.ResumeSpeedup, 2),
		equal(invariant("pipeline.hashes", "lazy and eager end-state disks hash alike"), c.HashesMatch, true),
		equal(invariant("pipeline.hydrated", "every lazy clone's disk came whole"), c.AllHydrated, true),
		// Serial clones of one image on four plants: a later clone on a node
		// maps the pages of a VM still running there.
		atLeast(invariant("pipeline.shared-resumes", "lazy clones that mapped a resident memory image"), c.Lazy.SharedResumes, 1),
		equal(invariant("pipeline.mappings", "memory-image mappings that outlived their VMs"), c.Eager.Mappings+c.Lazy.Mappings, 0),
		equal(invariant("pipeline.refills", "extents pulled again at a checksum their node held"), c.Lazy.Refills, 0),
		atLeast(invariant("pipeline.extent-hits", "lazy clones that found their extents cached"), c.Lazy.ExtentHits, 1),
	}
}

// Artifacts is the batch sweep and the clone comparison (dedup ratio,
// extent cache hits and fills, per-VM hashes) as JSON.
func (r *pipelineResult) Artifacts() []Artifact {
	return []Artifact{{Name: "metrics.json", Write: func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Batches    []batchPoint
			Comparison *cloneComparison
		}{r.Batches, r.Comparison})
	}}}
}

func runBatchPoint(seed int64, size int) (batchPoint, error) {
	hub := telemetry.New()
	d, err := NewDeployment(Options{Seed: seed, GoldenSizesMB: []int{pipelineMemMB}, Telemetry: hub})
	if err != nil {
		return batchPoint{}, err
	}

	specs := make([]*core.Spec, size)
	for i := range specs {
		specs[i], err = d.WorkspaceSpec(i+1, pipelineMemMB)
		if err != nil {
			return batchPoint{}, err
		}
	}
	pt := batchPoint{Size: size}
	var results []shop.BatchResult
	err = d.Run(func(p *sim.Proc) error {
		start := p.Now()
		results = d.Shop.CreateMany(p, specs)
		pt.MakespanSecs = (p.Now() - start).Seconds()
		return nil
	})
	if err != nil {
		return batchPoint{}, err
	}
	for _, r := range results {
		if r.Err != nil {
			pt.Failed++
		} else {
			pt.OK++
		}
	}
	if pt.MakespanSecs > 0 {
		pt.Throughput = float64(pt.OK) / pt.MakespanSecs
	}
	pt.CacheHits, pt.CacheMisses = d.Warehouse.CacheStats()
	pt.AdmissionWait = hub.Histogram("plant.admission_wait_secs").Snapshot()
	for _, pl := range d.Plants {
		if m := pl.MaxInflightClones(); m > pt.MaxInflight {
			pt.MaxInflight = m
		}
	}
	return pt, nil
}
