package workload

import (
	"fmt"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// SeriesSpec is one golden-machine size's request series (paper §4.2:
// "128 requests for 32MB and 64MB VMs, and 40 requests for 256MB VMs").
type SeriesSpec struct {
	MemoryMB int
	Requests int
}

// PaperSeries returns the paper's three series.
func PaperSeries() []SeriesSpec {
	return []SeriesSpec{{32, 128}, {64, 128}, {256, 40}}
}

// SmokeSeries is a scaled-down variant for fast tests.
func SmokeSeries() []SeriesSpec {
	return []SeriesSpec{{32, 12}, {64, 12}, {256, 8}}
}

// CreationExperiment holds the data behind Figures 4, 5 and 6: one
// request series per golden-machine size, each on a fresh deployment.
type CreationExperiment struct {
	Series  []SeriesSpec
	Records map[int][]CreationRecord // memory size → records
}

// RunCreationExperiment reproduces the paper's §4.2 runs: for each
// series, a fresh 8-plant deployment (memory-based bidding as in the
// prototype), sequential creations through the shop, with the paper's
// observed failure rate injected.
func RunCreationExperiment(seed int64, series []SeriesSpec) (*CreationExperiment, error) {
	exp := &CreationExperiment{Series: series, Records: make(map[int][]CreationRecord)}
	for i, s := range series {
		_, recs, err := runSeriesOn(Options{
			Seed:          seed + int64(i)*1000,
			GoldenSizesMB: []int{s.MemoryMB},
			PlantConfig:   plant.Config{FailProb: DefaultFailProb()},
		}, s.Requests, s.MemoryMB)
		if err != nil {
			return nil, err
		}
		exp.Records[s.MemoryMB] = recs
	}
	return exp, nil
}

// runSeriesOn builds a fresh deployment and drives n sequential
// creations of memMB workspaces through it.
func runSeriesOn(opts Options, n, memMB int) (*Deployment, []CreationRecord, error) {
	d, err := NewDeployment(opts)
	if err != nil {
		return nil, nil, err
	}
	recs, err := d.RunCreationSeries(n, memMB)
	return d, recs, err
}

// sizeLabel renders a histogram column header.
func sizeLabel(memMB int) string { return fmt.Sprintf("%d MB", memMB) }

// Figure4 builds the normalized distribution of end-to-end creation
// latencies, bucketed exactly as the paper plots them (10 s buckets
// centered at 5, 15, …).
func (e *CreationExperiment) Figure4() (map[string]*stats.Histogram, []string) {
	return e.histograms(10, CreateTimes)
}

// Figure5 builds the distribution of cloning latencies (5 s buckets).
func (e *CreationExperiment) Figure5() (map[string]*stats.Histogram, []string) {
	return e.histograms(5, CloneTimes)
}

// histograms buckets one latency of every series, keyed and ordered by
// size label.
func (e *CreationExperiment) histograms(bucketSecs float64, latency func([]CreationRecord) []float64) (map[string]*stats.Histogram, []string) {
	hists := make(map[string]*stats.Histogram)
	var order []string
	for _, s := range e.Series {
		h := stats.NewHistogram(0, bucketSecs)
		h.AddAll(latency(e.Records[s.MemoryMB]))
		label := sizeLabel(s.MemoryMB)
		hists[label] = h
		order = append(order, label)
	}
	return hists, order
}

// Figure6 builds cloning time as a function of VM sequence number, one
// series per memory size.
func (e *CreationExperiment) Figure6() []*stats.Series {
	var out []*stats.Series
	for _, s := range e.Series {
		ser := &stats.Series{Name: sizeLabel(s.MemoryMB)}
		for _, r := range e.Records[s.MemoryMB] {
			if r.OK {
				ser.Append(float64(r.Seq), r.CloneSecs)
			}
		}
		out = append(out, ser)
	}
	return out
}

// SummaryBySize reports per-size creation-time summaries.
func (e *CreationExperiment) SummaryBySize() map[int]stats.Summary {
	out := make(map[int]stats.Summary)
	for mem, recs := range e.Records {
		out[mem] = stats.Summarize(CreateTimes(recs))
	}
	return out
}

// CopyBaselineResult is the §4.3 link-vs-copy comparison: the full copy
// of the 2 GB golden disk versus the average cloning time of a 256 MB
// VM ("around 4 times slower than the average cloning time").
type CopyBaselineResult struct {
	FullCopySecs    float64
	AvgClone256Secs float64
	SlowdownFactor  float64
	GoldenDiskBytes int64
	GoldenSpanFiles int
}

// RunCopyBaseline measures both sides of the comparison.
func RunCopyBaseline(seed int64) (*CopyBaselineResult, error) {
	// Side 1: a full explicit copy of the golden disk over NFS.
	d, err := NewDeployment(Options{Seed: seed, GoldenSizesMB: []int{256}})
	if err != nil {
		return nil, err
	}
	im, _ := d.Warehouse.Lookup(GoldenName(256, d.Opts.Backend))
	res := &CopyBaselineResult{
		GoldenDiskBytes: im.Disk.Base().SizeBytes(),
		GoldenSpanFiles: im.Disk.Base().SpanFiles(),
	}
	err = d.Run(func(p *sim.Proc) error {
		node := d.Testbed.Nodes[0]
		start := p.Now()
		for i, ext := range im.ExtentPaths {
			if _, err := node.Warehouse().CopyTo(p, ext, node.LocalDisk(), fmt.Sprintf("copy/ext%03d", i), 1, sim.Foreground); err != nil {
				return fmt.Errorf("copy: %w", err)
			}
		}
		res.FullCopySecs = (p.Now() - start).Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Side 2: the average cloning time of 256 MB link clones.
	_, recs, err := runSeriesOn(Options{Seed: seed + 7, GoldenSizesMB: []int{256}}, 40, 256)
	if err != nil {
		return nil, err
	}
	res.AvgClone256Secs = stats.Summarize(CloneTimes(recs)).Mean
	if res.AvgClone256Secs > 0 {
		res.SlowdownFactor = res.FullCopySecs / res.AvgClone256Secs
	}
	return res, nil
}

// UMLResult is the §4.3 UML production-line measurement: a 32 MB UML VM
// instantiated via a full reboot averages ≈76 s per clone.
type UMLResult struct {
	Records      []CreationRecord
	CloneSummary stats.Summary
}

// RunUML runs the UML series.
func RunUML(seed int64, requests int) (*UMLResult, error) {
	_, recs, err := runSeriesOn(Options{
		Seed:          seed,
		GoldenSizesMB: []int{32},
		Backend:       warehouse.BackendUML,
	}, requests, 32)
	if err != nil {
		return nil, err
	}
	return &UMLResult{Records: recs, CloneSummary: stats.Summarize(CloneTimes(recs))}, nil
}

// CrossoverResult is the §3.4 cost-function walk-through outcome.
type CrossoverResult struct {
	Assignments []string // plant per request, in order
	Crossover   int      // 1-based request number that switched plants (0 = never)
}

// RunCostCrossover reproduces the §3.4 illustration: two plants, four
// host-only networks each, at most 32 VMs, network cost 50, compute
// cost 4×VMs, one client domain. The paper predicts 13 VMs on the first
// plant before the 14th lands on the second.
func RunCostCrossover(seed int64, requests int) (*CrossoverResult, error) {
	_, recs, err := runSeriesOn(Options{
		Plants:        2,
		Seed:          seed,
		GoldenSizesMB: []int{32},
		CostModelName: "network+compute",
		PlantConfig:   plant.Config{MaxVMs: 32, HostOnlyNetworks: 4},
	}, requests, 32)
	if err != nil {
		return nil, err
	}
	res := &CrossoverResult{}
	for _, r := range recs {
		if !r.OK {
			return nil, fmt.Errorf("crossover request %d failed: %s", r.Seq, r.Err)
		}
		res.Assignments = append(res.Assignments, r.Plant)
		if res.Crossover == 0 && r.Plant != res.Assignments[0] {
			res.Crossover = r.Seq
		}
	}
	return res, nil
}

// AblationResult compares a variant against the baseline mechanism.
type AblationResult struct {
	Name         string
	BaselineSecs stats.Summary // link-clone + DAG partial matching
	VariantSecs  stats.Summary
	BaselineOK   int
	VariantOK    int
	Factor       float64 // variant mean / baseline mean
}

func ablate(seed int64, name string, n, memMB int, variant plant.Config, publishBlank bool) (*AblationResult, error) {
	_, baseRecs, err := runSeriesOn(Options{Seed: seed, GoldenSizesMB: []int{memMB}}, n, memMB)
	if err != nil {
		return nil, err
	}
	_, varRecs, err := runSeriesOn(Options{
		Seed:          seed,
		GoldenSizesMB: []int{memMB},
		PlantConfig:   variant,
		PublishBlank:  publishBlank,
	}, n, memMB)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		Name:         name,
		BaselineSecs: stats.Summarize(CreateTimes(baseRecs)),
		VariantSecs:  stats.Summarize(CreateTimes(varRecs)),
		BaselineOK:   Succeeded(baseRecs),
		VariantOK:    Succeeded(varRecs),
	}
	if res.BaselineSecs.Mean > 0 {
		res.Factor = res.VariantSecs.Mean / res.BaselineSecs.Mean
	}
	return res, nil
}

// RunAblationNoPartialMatch disables partial matching: every creation
// starts from a blank image and pays the full OS install.
func RunAblationNoPartialMatch(seed int64, n int) (*AblationResult, error) {
	return ablate(seed, "no-partial-match", n, 64, plant.Config{DisablePartialMatch: true}, true)
}

// RunAblationCopyClone replaces link cloning with full disk copies.
func RunAblationCopyClone(seed int64, n int) (*AblationResult, error) {
	return ablate(seed, "copy-clone", n, 64, plant.Config{CloneMode: vdisk.CloneByCopy}, false)
}

// PrecreationResult compares on-demand cloning against speculative
// pre-creation (paper §4.3/§6: "latency-hiding optimizations such as
// speculative pre-creation of VMs can be conceived, but have not yet
// been investigated" — investigated here as extension E9).
type PrecreationResult struct {
	ColdSummary stats.Summary // on-demand cloning
	WarmSummary stats.Summary // served from the pre-created pool
	Hits        int
	Speedup     float64 // cold mean / warm mean
}

// RunPrecreation issues n requests against a single plant twice: cold,
// and with a pool of n pre-created clones built during idle time.
func RunPrecreation(seed int64, n int) (*PrecreationResult, error) {
	return RunPrecreationBackend(seed, n, warehouse.BackendVMware)
}

// RunPrecreationBackend is RunPrecreation for a specific production
// line. With the UML backend it reproduces the study the paper left
// open (§4.1: "With checkpointing techniques such as SBUML, it is
// possible to clone virtual machines from the corresponding snapshots
// and resume them without a full reboot" — "the subject of on-going
// experimental studies"): pre-created UML clones resume from their
// checkpoint, skipping the ≈76 s boot.
func RunPrecreationBackend(seed int64, n int, backend string) (*PrecreationResult, error) {
	opts := Options{Seed: seed, Plants: 1, GoldenSizesMB: []int{64}, Backend: backend}
	_, coldRecs, err := runSeriesOn(opts, n, 64)
	if err != nil {
		return nil, err
	}

	warm, err := NewDeployment(opts)
	if err != nil {
		return nil, err
	}
	if err := warm.Run(func(p *sim.Proc) error {
		return warm.Plants[0].Precreate(p, GoldenName(64, warm.Opts.Backend), n)
	}); err != nil {
		return nil, fmt.Errorf("precreate: %w", err)
	}
	warmRecs, err := warm.RunCreationSeries(n, 64)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, cs := range warm.Plants[0].CreationLog() {
		if cs.PrecreateHit {
			hits++
		}
	}
	res := &PrecreationResult{
		ColdSummary: stats.Summarize(CreateTimes(coldRecs)),
		WarmSummary: stats.Summarize(CreateTimes(warmRecs)),
		Hits:        hits,
	}
	if res.WarmSummary.Mean > 0 {
		res.Speedup = res.ColdSummary.Mean / res.WarmSummary.Mean
	}
	return res, nil
}

// MigrationResult measures live VM relocation (paper §6 future work:
// "migration of active VMs across plants") against the alternative of
// destroying and re-creating the VM on the destination.
type MigrationResult struct {
	MigrateSecs  stats.Summary
	RecreateSecs stats.Summary
	Speedup      float64
}

// RunMigration creates n VMs on one plant and moves each to a second
// plant, comparing migration latency with fresh re-creation latency.
func RunMigration(seed int64, n int) (*MigrationResult, error) {
	d, err := NewDeployment(Options{Seed: seed, Plants: 2, GoldenSizesMB: []int{64}})
	if err != nil {
		return nil, err
	}
	src, dst := d.Plants[0], d.Plants[1]
	var migrate, recreate []float64
	err = d.Run(func(p *sim.Proc) error {
		for i := 1; i <= n; i++ {
			spec, err := d.WorkspaceSpec(i, 64)
			if err != nil {
				return err
			}
			id := core.VMID(fmt.Sprintf("vm-mig-%d", i))
			if _, err := src.Create(p, id, spec); err != nil {
				return fmt.Errorf("create: %w", err)
			}
			start := p.Now()
			if err := src.MigrateTo(p, id, dst); err != nil {
				return fmt.Errorf("migrate: %w", err)
			}
			migrate = append(migrate, (p.Now() - start).Seconds())

			// The alternative: build the same workspace from scratch on
			// the destination.
			spec2, err := d.WorkspaceSpec(i+1000, 64)
			if err != nil {
				return err
			}
			start = p.Now()
			if _, err := dst.Create(p, core.VMID(fmt.Sprintf("vm-fresh-%d", i)), spec2); err != nil {
				return fmt.Errorf("recreate: %w", err)
			}
			recreate = append(recreate, (p.Now() - start).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &MigrationResult{
		MigrateSecs:  stats.Summarize(migrate),
		RecreateSecs: stats.Summarize(recreate),
	}
	if res.MigrateSecs.Mean > 0 {
		res.Speedup = res.RecreateSecs.Mean / res.MigrateSecs.Mean
	}
	return res, nil
}

// AnatomyResult breaks one creation workload into its pipeline stages —
// the "closer look" analysis behind the paper's Figure 5 discussion.
type AnatomyResult struct {
	N          int
	CopySecs   stats.Summary // state copy over NFS (config, redo, memory image)
	ResumeSecs stats.Summary // local read-back + VMM resume
	ConfigSecs stats.Summary // residual DAG execution via the guest agent
	TotalSecs  stats.Summary // plant-side create
	ClientSecs stats.Summary // client-observed end to end (adds shop/bidding)
}

// RunAnatomy runs a 64 MB series and aggregates per-stage latencies
// from the plants' creation logs.
func RunAnatomy(seed int64, n int) (*AnatomyResult, error) {
	d, recs, err := runSeriesOn(Options{Seed: seed, GoldenSizesMB: []int{64}}, n, 64)
	if err != nil {
		return nil, err
	}
	var copySecs, resumeSecs, cfgSecs, totalSecs []float64
	for _, pl := range d.Plants {
		for _, cs := range pl.CreationLog() {
			copySecs = append(copySecs, cs.Clone.CopyTime.Seconds())
			resumeSecs = append(resumeSecs, cs.Clone.ResumeTime.Seconds())
			cfgSecs = append(cfgSecs, cs.ConfigTime.Seconds())
			totalSecs = append(totalSecs, cs.Total.Seconds())
		}
	}
	return &AnatomyResult{
		N:          len(totalSecs),
		CopySecs:   stats.Summarize(copySecs),
		ResumeSecs: stats.Summarize(resumeSecs),
		ConfigSecs: stats.Summarize(cfgSecs),
		TotalSecs:  stats.Summarize(totalSecs),
		ClientSecs: stats.Summarize(CreateTimes(recs)),
	}, nil
}

// ParkingResult measures the idle-workspace lifecycle: suspending a
// workspace frees its host memory; resuming it is far cheaper than
// re-creating it.
type ParkingResult struct {
	SuspendSecs     stats.Summary
	ResumeSecs      stats.Summary
	CreateSecs      stats.Summary
	CommittedBefore int // node MB committed with all workspaces running
	CommittedParked int // node MB committed with all workspaces suspended
}

// RunParking creates n workspaces on one plant, parks them all, then
// resumes them, recording each transition's latency and the node's
// committed memory.
func RunParking(seed int64, n int) (*ParkingResult, error) {
	d, recs, err := runSeriesOn(Options{Seed: seed, Plants: 1, GoldenSizesMB: []int{64}}, n, 64)
	if err != nil {
		return nil, err
	}
	res := &ParkingResult{CreateSecs: stats.Summarize(CreateTimes(recs))}
	var suspend, resume []float64
	err = d.Run(func(p *sim.Proc) error {
		res.CommittedBefore = d.Testbed.Nodes[0].CommittedMB()
		for _, rec := range recs {
			start := p.Now()
			if err := d.Shop.Suspend(p, rec.VMID); err != nil {
				return fmt.Errorf("suspend: %w", err)
			}
			suspend = append(suspend, (p.Now() - start).Seconds())
		}
		res.CommittedParked = d.Testbed.Nodes[0].CommittedMB()
		for _, rec := range recs {
			start := p.Now()
			if err := d.Shop.Resume(p, rec.VMID); err != nil {
				return fmt.Errorf("resume: %w", err)
			}
			resume = append(resume, (p.Now() - start).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.SuspendSecs = stats.Summarize(suspend)
	res.ResumeSecs = stats.Summarize(resume)
	return res, nil
}

// TemplateVsDAGResult is the A2 ablation: template (exact-configuration)
// matching à la VirtualCenter versus the paper's DAG partial matching,
// over a workload mixing generic and personalized requests.
type TemplateVsDAGResult struct {
	Requests        int
	TemplateHits    int
	TemplateOK      int
	TemplateSummary stats.Summary
	DAGHits         int
	DAGOK           int
	DAGSummary      stats.Summary
}

// RunTemplateVsDAG issues n requests alternating between generic
// workspaces (exact template hits) and personalized ones (template
// misses that fall back to a blank image and a full install; DAG
// matching serves them from the partial image).
func RunTemplateVsDAG(seed int64, n int) (*TemplateVsDAGResult, error) {
	run := func(cfg plant.Config) ([]CreationRecord, int, error) {
		d, err := NewDeployment(Options{
			Seed:          seed,
			GoldenSizesMB: []int{64},
			PublishBlank:  true,
			PlantConfig:   cfg,
		})
		if err != nil {
			return nil, 0, err
		}
		recs, err := d.runSeries(n, 64, func(seq, memMB int) (*core.Spec, error) {
			spec, err := d.WorkspaceSpec(seq, memMB)
			if err == nil && seq%2 == 1 {
				spec.Graph, err = GenericDAG()
			}
			return spec, err
		})
		hits := 0
		for _, r := range recs {
			if r.MatchedOps > 0 {
				hits++
			}
		}
		return recs, hits, err
	}
	tmplRecs, tmplHits, err := run(plant.Config{TemplateMatch: true})
	if err != nil {
		return nil, err
	}
	dagRecs, dagHits, err := run(plant.Config{})
	if err != nil {
		return nil, err
	}
	return &TemplateVsDAGResult{
		Requests:        n,
		TemplateHits:    tmplHits,
		TemplateOK:      Succeeded(tmplRecs),
		TemplateSummary: stats.Summarize(CreateTimes(tmplRecs)),
		DAGHits:         dagHits,
		DAGOK:           Succeeded(dagRecs),
		DAGSummary:      stats.Summarize(CreateTimes(dagRecs)),
	}, nil
}
