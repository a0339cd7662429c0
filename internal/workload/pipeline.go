package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
	CacheHits    int64   // warehouse clone-cache hits
	CacheMisses  int64
	// AdmissionWait summarizes plant.admission_wait_secs: how long
	// creations queued for a clone slot.
	AdmissionWait stats.Summary
	// MaxInflight is the highest concurrently admitted clone count seen
	// on any single plant.
	MaxInflight int
}

// pipelineResult is the full sweep, the determinism check and the
// lazy-vs-eager clone comparison.
type pipelineResult struct {
	Batches []batchPoint

	// DeterminismOK reports that a fresh default deployment creating
	// one VM serially and a fresh same-seed deployment creating the
	// same VM through CreateMany produced byte-identical creation logs
	// and bid records.
	DeterminismOK     bool
	SerialFingerprint string
	BatchFingerprint  string

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
// plants — a fresh deployment per size so points are independent; the
// clone cache must be warm after the first clone of the one golden
// image, and batch 16 must beat batch 1 by >= 3x — plus the guarantee
// that the pipeline machinery leaves a single serial request
// byte-identical, and the lazy-vs-eager clone comparison.
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
	if res.SerialFingerprint, err = creationFingerprint(seed, false); err != nil {
		return nil, err
	}
	if res.BatchFingerprint, err = creationFingerprint(seed, true); err != nil {
		return nil, err
	}
	res.DeterminismOK = res.SerialFingerprint == res.BatchFingerprint
	if res.Comparison, err = runCloneComparison(seed, par.cloneVMs, pipelineMemMB); err != nil {
		return nil, err
	}
	return res, nil
}

// Fingerprint digests the batch sweep, the serial-vs-batch creation
// logs, and both clone-mode runs.
func (r *pipelineResult) Fingerprint() string {
	var lines []string
	for _, bp := range r.Batches {
		lines = append(lines, fmt.Sprintf("batch size=%d ok=%d failed=%d makespan=%.6f hits=%d misses=%d admwait_p99=%.6f max_inflight=%d",
			bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight))
	}
	lines = append(lines, "serial:", r.SerialFingerprint, "batch:", r.BatchFingerprint,
		"eager:", r.Comparison.Eager.Fingerprint(), "lazy:", r.Comparison.Lazy.Fingerprint())
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
		fmt.Sprintf("serial vs batch single-request creation log byte-identical: %v", r.DeterminismOK),
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
	g.check(r.DeterminismOK, "serial and single-batch creation logs diverged")
	c := r.Comparison
	g.check(c.ResumeSpeedup >= 2, "lazy resume speedup %.2f× < 2", c.ResumeSpeedup)
	g.check(c.HashesMatch, "lazy and eager end-state disks hash differently")
	g.check(c.AllHydrated, "a lazy clone never finished hydrating")
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

// creationFingerprint creates one VM on a fresh default deployment —
// serially through Shop.Create, or through the batch pipeline when
// batch is set — and digests everything observable about the creation:
// the plant-side creation log, the bidding round, and the client-facing
// outcome. Identical fingerprints mean the pipeline left the serial
// path byte-identical.
func creationFingerprint(seed int64, batch bool) (string, error) {
	d, err := NewDeployment(Options{Seed: seed})
	if err != nil {
		return "", err
	}
	spec, err := d.WorkspaceSpec(1, pipelineMemMB)
	if err != nil {
		return "", err
	}
	var lines []string
	err = d.Run(func(p *sim.Proc) error {
		var id core.VMID
		var cerr error
		if batch {
			r := d.Shop.CreateMany(p, []*core.Spec{spec})[0]
			id, cerr = r.VMID, r.Err
		} else {
			id, _, cerr = d.Shop.Create(p, spec)
		}
		lines = append(lines, fmt.Sprintf("outcome id=%s err=%v end=%s", id, cerr, p.Now()))
		return nil
	})
	if err != nil {
		return "", err
	}
	for i, pl := range d.Plants {
		for _, cs := range pl.CreationLog() {
			lines = append(lines, fmt.Sprintf(
				"plant=%d vmid=%s mem=%d mode=%v copied=%d linked=%d copy=%s resume=%s clone=%s cfg=%s total=%s matched=%d residual=%d golden=%s hit=%v",
				i, cs.VMID, cs.MemoryMB, cs.Clone.Mode, cs.Clone.CopiedBytes,
				cs.Clone.LinkedFiles, cs.Clone.CopyTime, cs.Clone.ResumeTime,
				cs.Clone.Total, cs.ConfigTime, cs.Total, cs.MatchedOps,
				cs.ResidualOps, cs.Golden, cs.PrecreateHit))
		}
	}
	for _, rec := range d.Shop.Bids() {
		plants := make([]string, 0, len(rec.Costs))
		for name := range rec.Costs {
			plants = append(plants, name)
		}
		sort.Strings(plants)
		var costs []string
		for _, name := range plants {
			costs = append(costs, fmt.Sprintf("%s=%v", name, rec.Costs[name]))
		}
		lines = append(lines, fmt.Sprintf("bid vmid=%s winner=%s costs=[%s]",
			rec.VMID, rec.Winner, strings.Join(costs, " ")))
	}
	return strings.Join(lines, "\n"), nil
}
