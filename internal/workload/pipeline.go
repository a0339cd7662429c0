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

// SpeedupOver reports throughput at batch size a divided by throughput
// at batch size b (0 when either point is missing or empty).
func (r *pipelineResult) SpeedupOver(a, b int) float64 {
	var ta, tb float64
	for _, bp := range r.Batches {
		if bp.Size == a {
			ta = bp.Throughput
		}
		if bp.Size == b {
			tb = bp.Throughput
		}
	}
	if tb == 0 {
		return 0
	}
	return ta / tb
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
	out = append(out, "",
		fmt.Sprintf("batch-16 vs batch-1 throughput: %.1f×", r.SpeedupOver(16, 1)),
		"", "Lazy vs eager cloning (content-addressed extent store):")
	return append(out, r.Comparison.Report()...)
}

// Violations lists the pipeline invariants the run broke.
func (r *pipelineResult) Violations() []string {
	var g gate
	for _, b := range r.Batches {
		g.check(b.Failed == 0 && b.OK == b.Size, "batch %d: ok=%d failed=%d", b.Size, b.OK, b.Failed)
		// One golden image: the first clone misses, the rest must hit.
		g.check(b.CacheMisses == 1 && b.CacheHits == int64(b.Size-1),
			"batch %d: cache hits=%d misses=%d", b.Size, b.CacheHits, b.CacheMisses)
		// The derived per-plant cap is 3 on the default node; a batch of
		// 16 over 8 plants must drive plants into concurrent cloning.
		g.check(b.Size < 16 || b.MaxInflight >= 2,
			"batch %d: max in-flight clones = %d; batching produced no concurrency", b.Size, b.MaxInflight)
	}
	speedup := r.SpeedupOver(16, 1)
	g.check(speedup >= 3, "batch-16 speedup over batch-1 = %.2f×, want >= 3×", speedup)
	c := r.Comparison
	g.check(c.ResumeSpeedup >= 2, "lazy resume speedup %.2f× < 2", c.ResumeSpeedup)
	g.check(c.HashesMatch, "lazy and eager end-state disks hash differently")
	g.check(c.AllHydrated, "a lazy clone never finished hydrating")
	// Serial clones of one image on four plants: a later clone on a node
	// maps the pages of a VM still running there.
	g.check(c.Lazy.SharedResumes > 0, "no lazy clone mapped a resident memory image")
	g.check(c.Eager.Mappings+c.Lazy.Mappings == 0, "%d memory-image mappings outlived their VMs", c.Eager.Mappings+c.Lazy.Mappings)
	g.check(c.DeterminismOK, "same-seed lazy rerun not byte-identical")
	return g
}

// Artifacts is the batch sweep and the clone comparison (dedup ratio,
// hydration lag, per-VM hashes) as JSON.
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
	d.Shop.BidTimeout = bidTimeout // so concurrent bidding rounds overlap

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
