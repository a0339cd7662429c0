package workload

import (
	"fmt"
	"slices"

	"vmplants/internal/core"
	"vmplants/internal/guestbench"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// The paper's own evaluation as registry entries: Figures 4–6 (§4.2),
// the §4.3 copy baseline, UML line and cited overhead table, the §3.4
// crossover, the design ablations A1–A3 and the §6 extensions E9–E13.
// Each result's Report prints the measured rows beside the paper's
// numbers, and its Violations is the one place that claim is enforced
// (EXPERIMENTS.md states it under "Gate:").

// seriesSpec is one golden-machine size's request series.
type seriesSpec struct{ memoryMB, requests int }

// creationParams is the Figure 4–6 preset. fills says the series are
// long enough to fill the plants (16 × 64 MB or 5 × 256 MB clones per
// 1.5 GB node pass 1 GB): the paper's two observations about filling
// plants — Figure 5's spread and Figure 6's slopes — are gated only
// then.
type creationParams struct {
	series []seriesSpec
	fills  bool
}

var (
	// §4.2: "128 requests for 32MB and 64MB VMs, and 40 requests for
	// 256MB VMs".
	paperCreation = creationParams{series: []seriesSpec{{32, 128}, {64, 128}, {256, 40}}, fills: true}
	smokeCreation = creationParams{series: []seriesSpec{{32, 12}, {64, 12}, {256, 8}}}
)

// logRecords logs every per-request observable of a series.
func (t *transcript) logRecords(label string, recs []creationRecord) {
	for _, r := range recs {
		t.logf("%s #%d ok=%v plant=%s create=%v clone=%v %s", label, r.Seq, r.OK, r.Plant, r.CreateSecs, r.CloneSecs, r.Err)
	}
}

// series builds a fresh deployment, drives n sequential creations of
// memMB workspaces through it and logs every record under label.
func (t *transcript) series(label string, opts Options, n, memMB int) (*Deployment, []creationRecord, error) {
	d, err := NewDeployment(opts)
	if err != nil {
		return nil, nil, err
	}
	recs, err := d.runCreationSeries(n, memMB)
	t.logRecords(label, recs)
	return d, recs, err
}

// mean is the mean of the successful records' latency.
func mean(recs []creationRecord, latency func([]creationRecord) []float64) float64 {
	return stats.Summarize(latency(recs)).Mean
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// creationResult holds the data behind Figures 4, 5 and 6: one request
// series per golden-machine size, each on a fresh deployment.
type creationResult struct {
	transcript
	par     creationParams
	records [][]creationRecord // one slice per par.series entry
}

// runCreation reproduces the paper's §4.2 runs: for each series, a
// fresh 8-plant deployment (memory-based bidding as in the prototype)
// and sequential creations through the shop, 3 % of which fail in
// configuration so that success counts land near the paper's (121, 124
// and 40 VMs out of 128, 128 and 40 requests).
func runCreation(seed int64, par creationParams) (*creationResult, error) {
	res := &creationResult{par: par}
	for i, s := range par.series {
		_, recs, err := res.series(sizeLabel(s.memoryMB), Options{
			Seed:          seed + int64(i)*1000,
			GoldenSizesMB: []int{s.memoryMB},
			PlantConfig:   plant.Config{FailProb: map[string]float64{"configure-network": 0.03}},
		}, s.requests, s.memoryMB)
		if err != nil {
			return nil, err
		}
		res.records = append(res.records, recs)
	}
	return res, nil
}

// figure registers one view of those runs: Figures 4, 5 and 6 plot the
// same three series.
func figure[R Result](name, title string, view func(*creationResult) R) Scenario {
	return newScenario(name, title, paperCreation, smokeCreation, func(seed int64, par creationParams) (R, error) {
		c, err := runCreation(seed, par)
		return view(c), err
	})
}

// sizeLabel renders a histogram column header.
func sizeLabel(memMB int) string { return fmt.Sprintf("%d MB", memMB) }

// histogramTable buckets one latency of every series, one column per
// size, exactly as the paper plots them.
func (r *creationResult) histogramTable(xlabel string, bucketSecs float64, latency func([]creationRecord) []float64) string {
	hists := make(map[string]*stats.Histogram)
	var order []string
	for i, s := range r.par.series {
		h := stats.NewHistogram(0, bucketSecs)
		h.AddAll(latency(r.records[i]))
		hists[sizeLabel(s.memoryMB)] = h
		order = append(order, sizeLabel(s.memoryMB))
	}
	return stats.MultiHistogramTable(xlabel, hists, order)
}

// summaries summarizes one latency per series, in series order.
func (r *creationResult) summaries(latency func([]creationRecord) []float64) []stats.Summary {
	out := make([]stats.Summary, len(r.records))
	for i, recs := range r.records {
		out[i] = stats.Summarize(latency(recs))
	}
	return out
}

// ascending reports whether one field of the summaries grows strictly
// with memory size.
func ascending(sums []stats.Summary, field func(stats.Summary) float64) bool {
	for i := 1; i < len(sums); i++ {
		if !(field(sums[i-1]) < field(sums[i])) {
			return false
		}
	}
	return true
}

func summaryMean(s stats.Summary) float64 { return s.Mean }

// fig4Result views the creation runs as Figure 4: the normalized
// distribution of end-to-end creation latencies (10 s buckets centered
// at 5, 15, …).
type fig4Result struct{ *creationResult }

func (r fig4Result) Report() []string {
	out := []string{r.histogramTable("latency (s, bucket center)", 10, createTimes)}
	for i, sum := range r.summaries(createTimes) {
		out = append(out, fmt.Sprintf("%3d MB: %d/%d created, %s", r.par.series[i].memoryMB, sum.N, len(r.records[i]), sum))
	}
	return append(out,
		"\npaper: VMs instantiated on average in 25–48 s; envelope 17–85 s;",
		"creation times larger for larger memory sizes; 121/124/40 VMs created.")
}

// Violations: larger memory, larger mean; every creation inside the
// paper's 17–85 s envelope, taken a little wide.
func (r fig4Result) Violations() []string {
	var g gate
	sums := r.summaries(createTimes)
	g.check(ascending(sums, summaryMean), "mean creation times not ordered by memory size: %v", sums)
	lo, hi := sums[0].Min, sums[len(sums)-1].Max
	g.check(lo >= 15 && hi <= 90, "creation latencies outside the paper envelope: min=%.1f max=%.1f, want 15–90 s", lo, hi)
	return g
}

// fig5Result views the same runs as Figure 5: the distribution of PPP
// cloning latencies, clone request → resume complete (5 s buckets).
type fig5Result struct{ *creationResult }

func (r fig5Result) Report() []string {
	out := []string{r.histogramTable("cloning time (s, bucket center)", 5, cloneTimes)}
	for i, sum := range r.summaries(cloneTimes) {
		out = append(out, fmt.Sprintf("%3d MB clone: %s", r.par.series[i].memoryMB, sum))
	}
	return out
}

// Violations: cloning is dominated by the state copy, so its mean grows
// with memory size — and, once plants fill, so does its spread.
func (r fig5Result) Violations() []string {
	var g gate
	sums := r.summaries(cloneTimes)
	g.check(ascending(sums, summaryMean), "mean cloning times not ordered by memory size: %v", sums)
	if r.par.fills {
		g.check(ascending(sums, func(s stats.Summary) float64 { return s.Stddev }),
			"cloning-time spread not ordered by memory size: %v", sums)
	}
	return g
}

// fig6Result views the same runs as Figure 6: cloning time as a
// function of VM sequence number, one series per memory size.
type fig6Result struct{ *creationResult }

func (r fig6Result) perSequence() []*stats.Series {
	var out []*stats.Series
	for i, s := range r.par.series {
		ser := &stats.Series{Name: sizeLabel(s.memoryMB)}
		for _, rec := range r.records[i] {
			if rec.OK {
				ser.Append(float64(rec.Seq), rec.CloneSecs)
			}
		}
		out = append(out, ser)
	}
	return out
}

func (r fig6Result) Report() []string {
	series := r.perSequence()
	var down []*stats.Series
	for _, s := range series {
		down = append(down, s.Downsample(8))
	}
	out := []string{stats.MultiSeriesTable("sequence", down...)}
	for _, s := range series {
		out = append(out, fmt.Sprintf("%s trend: %+.3f s/request", s.Name, s.TrendSlope()))
	}
	return append(out, "\npaper: cloning times increase as plants fill; most noticeable for 64 MB and 256 MB.")
}

// Violations: "cloning times tend to increase when the VMPlant hosts a
// large number of VMs … most noticeable in the 64MB and 256MB cases".
func (r fig6Result) Violations() []string {
	var g gate
	if r.par.fills {
		series := r.perSequence()
		mid, big := series[len(series)-2].TrendSlope(), series[len(series)-1].TrendSlope()
		g.check(mid > 0 && big > mid, "pressure growth missing: %s slope %+.3f, %s slope %+.3f s/request",
			series[len(series)-2].Name, mid, series[len(series)-1].Name, big)
	}
	return g
}

// copyResult is the §4.3 link-vs-copy comparison: the full copy of the
// 2 GB golden disk versus the average cloning time of a 256 MB VM
// ("around 4 times slower than the average cloning time").
type copyResult struct {
	transcript
	FullCopySecs    float64
	AvgClone256Secs float64
	SlowdownFactor  float64
	GoldenDiskBytes int64
	GoldenSpanFiles int
}

// runCopyBaseline measures both sides of the comparison.
func runCopyBaseline(seed int64) (*copyResult, error) {
	// Side 1: a full explicit copy of the golden disk over NFS.
	d, err := NewDeployment(Options{Seed: seed, GoldenSizesMB: []int{256}})
	if err != nil {
		return nil, err
	}
	im, _ := d.Warehouse.Lookup(GoldenName(256, d.Opts.Backend))
	res := &copyResult{
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
	res.logf("full copy %v s", res.FullCopySecs)

	// Side 2: the average cloning time of 256 MB link clones.
	_, recs, err := res.series("link", Options{Seed: seed + 7, GoldenSizesMB: []int{256}}, 40, 256)
	if err != nil {
		return nil, err
	}
	res.AvgClone256Secs = mean(recs, cloneTimes)
	res.SlowdownFactor = ratio(res.FullCopySecs, res.AvgClone256Secs)
	return res, nil
}

func (r *copyResult) Report() []string {
	return []string{
		fmt.Sprintf("golden disk: %d bytes across %d extent files", r.GoldenDiskBytes, r.GoldenSpanFiles),
		fmt.Sprintf("full copy over NFS:        %6.1f s   (paper: ≈210 s)", r.FullCopySecs),
		fmt.Sprintf("average 256 MB link clone: %6.1f s", r.AvgClone256Secs),
		fmt.Sprintf("slowdown factor:           %6.1f×   (paper: ≈4×)", r.SlowdownFactor),
	}
}

func (r *copyResult) Violations() []string {
	var g gate
	g.check(r.FullCopySecs >= 180 && r.FullCopySecs <= 240, "full copy %.1f s, want ≈210 s (180–240)", r.FullCopySecs)
	g.check(r.SlowdownFactor >= 2.5 && r.SlowdownFactor <= 6.5, "slowdown factor %.2f outside the ≈4× band (2.5–6.5)", r.SlowdownFactor)
	return g
}

// umlResult is the §4.3 UML production-line measurement: a 32 MB UML VM
// instantiated via a full reboot averages ≈76 s per clone.
type umlResult struct {
	transcript
	Clones stats.Summary
}

func runUML(seed int64) (*umlResult, error) {
	res := &umlResult{}
	_, recs, err := res.series("uml", Options{
		Seed:          seed,
		GoldenSizesMB: []int{32},
		Backend:       warehouse.BackendUML,
	}, 40, 32)
	res.Clones = stats.Summarize(cloneTimes(recs))
	return res, err
}

func (r *umlResult) Report() []string {
	return []string{fmt.Sprintf("clones: %s", r.Clones), "paper: average cloning time 76 s"}
}

func (r *umlResult) Violations() []string {
	var g gate
	g.check(r.Clones.Mean >= 65 && r.Clones.Mean <= 90, "UML mean clone %.1f s outside the ≈76 s band (65–90)", r.Clones.Mean)
	return g
}

// crossoverResult is the §3.4 cost-function walk-through outcome.
type crossoverResult struct {
	transcript
	Assignments []string // plant per request, in order
	Crossover   int      // 1-based request number that switched plants (0 = never)
}

// runCostCrossover reproduces the §3.4 illustration: two plants, four
// host-only networks each, at most 32 VMs, network cost 50, compute
// cost 4×VMs, one client domain. The paper predicts 13 VMs on the first
// plant before the 14th lands on the second; 16 requests show it.
func runCostCrossover(seed int64) (*crossoverResult, error) {
	res := &crossoverResult{}
	_, recs, err := res.series("cost", Options{
		Plants:        2,
		Seed:          seed,
		GoldenSizesMB: []int{32},
		CostModelName: "network+compute",
		PlantConfig:   plant.Config{MaxVMs: 32, HostOnlyNetworks: 4},
	}, 16, 32)
	if err != nil {
		return nil, err
	}
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

func (r *crossoverResult) Report() []string {
	out := []string{"request  plant"}
	for i, pl := range r.Assignments {
		out = append(out, fmt.Sprintf("%7d  %s", i+1, pl))
	}
	return append(out, fmt.Sprintf("\ncrossover at request %d (paper: the 14th request switches plants)", r.Crossover))
}

// Violations: the crossover is the first request off the first plant,
// so 14 also means the first 13 shared one plant.
func (r *crossoverResult) Violations() []string {
	var g gate
	g.check(r.Crossover == 14, "crossover at request %d, want 14 (13 VMs on the first plant)", r.Crossover)
	return g
}

// overheadResult is the §4.3 run-time overhead table. The paper cites
// it rather than measuring it, so it has no seed and no gate of its
// own: internal/guestbench's tests hold the constants.
type overheadResult struct{ table string }

func runOverhead(int64) (overheadResult, error) {
	return overheadResult{guestbench.FormatTable(guestbench.Table())}, nil
}

func (r overheadResult) Report() []string {
	return []string{r.table,
		"paper: SPEC INT2000 ≈2 % (VMware), 3 % (UML), ≈0 % (Xen);",
		"SPECseis ≈6 % under VMware; I/O-heavy LSS ≈13 %."}
}

func (r overheadResult) Fingerprint() string  { return r.table }
func (r overheadResult) Violations() []string { return nil }

// anatomyResult breaks one creation workload into its pipeline stages —
// the "closer look" analysis behind the paper's Figure 5 discussion.
type anatomyResult struct {
	transcript
	// Means over the series, in seconds.
	CopySecs   float64 // state copy over NFS (config, redo, memory image)
	ResumeSecs float64 // local read-back + VMM resume
	ConfigSecs float64 // residual DAG execution via the guest agent
	TotalSecs  float64 // plant-side create
	ClientSecs float64 // client-observed end to end (adds shop/bidding)
}

// runAnatomy runs a 64 MB series of 32 requests and averages per-stage
// latencies from the plants' creation logs.
func runAnatomy(seed int64) (*anatomyResult, error) {
	res := &anatomyResult{}
	d, recs, err := res.series("anatomy", Options{Seed: seed, GoldenSizesMB: []int{64}}, 32, 64)
	if err != nil {
		return nil, err
	}
	n := 0.0
	for _, pl := range d.Plants {
		for _, cs := range pl.CreationLog() {
			n++
			res.CopySecs += cs.Clone.CopyTime.Seconds()
			res.ResumeSecs += cs.Clone.ResumeTime.Seconds()
			res.ConfigSecs += cs.ConfigTime.Seconds()
			res.TotalSecs += cs.Total.Seconds()
			res.logf("%s copy=%v resume=%v config=%v total=%v", pl.Name(),
				cs.Clone.CopyTime, cs.Clone.ResumeTime, cs.ConfigTime, cs.Total)
		}
	}
	for _, sum := range []*float64{&res.CopySecs, &res.ResumeSecs, &res.ConfigSecs, &res.TotalSecs} {
		*sum /= n
	}
	res.ClientSecs = mean(recs, createTimes)
	return res, nil
}

func (r *anatomyResult) Report() []string {
	return []string{
		fmt.Sprintf("state copy over NFS:    %6.1f s", r.CopySecs),
		fmt.Sprintf("resume (read + VMM):    %6.1f s", r.ResumeSecs),
		fmt.Sprintf("residual configuration: %6.1f s", r.ConfigSecs),
		fmt.Sprintf("plant-side total:       %6.1f s", r.TotalSecs),
		fmt.Sprintf("client end-to-end:      %6.1f s (adds discovery/bidding/transport)", r.ClientSecs),
	}
}

func (r *anatomyResult) Violations() []string {
	var g gate
	stages := r.CopySecs + r.ResumeSecs + r.ConfigSecs
	g.check(stages <= r.TotalSecs+1, "stages sum to %.1f s, over the plant-side total %.1f s", stages, r.TotalSecs)
	g.check(r.TotalSecs < r.ClientSecs, "plant-side total %.1f s not below client end-to-end %.1f s", r.TotalSecs, r.ClientSecs)
	return g
}

// traceStages are the creation pipeline's spans in execution order;
// anything else a run happened to trace follows them by name.
var traceStages = []string{"shop.create", "shop.bid", "plant.create", "plan",
	"clone", "clone.copy", "clone.resume", "clone.boot", "configure", "action"}

// traceResult is the per-stage creation-time breakdown reconstructed
// purely from the telemetry hub's spans.
type traceResult struct {
	transcript
	hub     *telemetry.Hub
	records []creationRecord
}

func runTrace(seed int64) (*traceResult, error) {
	res := &traceResult{hub: telemetry.New()}
	var err error
	_, res.records, err = res.series("trace", Options{Seed: seed, Telemetry: res.hub}, 16, 64)
	res.lines = append(res.lines, res.stageTable()...)
	return res, err
}

func (r *traceResult) stageTable() []string {
	byStage := make(map[string][]float64)
	for _, s := range r.hub.Tracer.Spans() {
		byStage[s.Name] = append(byStage[s.Name], s.Virtual().Seconds())
	}
	var rest []string
	for name := range byStage {
		if !slices.Contains(traceStages, name) {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	out := []string{fmt.Sprintf("%-16s %5s %8s %8s %8s %8s", "stage", "n", "mean", "p50", "p90", "max")}
	for _, name := range append(slices.Clone(traceStages), rest...) {
		if samples, ok := byStage[name]; ok {
			sum := stats.Summarize(samples)
			out = append(out, fmt.Sprintf("%-16s %5d %8.2f %8.2f %8.2f %8.2f",
				name, sum.N, sum.Mean, sum.P50, sum.P90, sum.Max))
		}
	}
	return out
}

func (r *traceResult) Report() []string {
	return append(r.stageTable(), fmt.Sprintf("\n%d spans from %d/%d successful creations; %d metrics registered",
		len(r.hub.Tracer.Spans()), succeeded(r.records), len(r.records), len(r.hub.Metrics.Snapshot())))
}

// Violations: the breakdown is a view, not a claim of the paper's.
func (r *traceResult) Violations() []string { return nil }

// Artifacts is the run's spans as JSONL, wall and virtual intervals.
func (r *traceResult) Artifacts() []Artifact {
	return []Artifact{{Name: "trace.jsonl", Write: r.hub.Tracer.WriteJSONL}}
}

// ablation compares a variant against the baseline mechanism
// (link-clone + DAG partial matching) on one 64 MB series.
type ablation struct {
	BaselineSecs, VariantSecs float64 // mean creation time
	Served                    bool    // every request of both runs succeeded
	Factor                    float64 // variant mean / baseline mean
}

func (t *transcript) ablate(label string, seed int64, n int, variant plant.Config, publishBlank bool) (ablation, error) {
	const memMB = 64
	_, base, err := t.series(label+" baseline", Options{Seed: seed, GoldenSizesMB: []int{memMB}}, n, memMB)
	if err != nil {
		return ablation{}, err
	}
	_, alt, err := t.series(label+" variant", Options{
		Seed:          seed,
		GoldenSizesMB: []int{memMB},
		PlantConfig:   variant,
		PublishBlank:  publishBlank,
	}, n, memMB)
	a := ablation{
		BaselineSecs: mean(base, createTimes),
		VariantSecs:  mean(alt, createTimes),
		Served:       succeeded(base) == n && succeeded(alt) == n,
	}
	a.Factor = ratio(a.VariantSecs, a.BaselineSecs)
	return a, err
}

// templateSide is one matcher's half of the A2 ablation.
type templateSide struct {
	Hits     int // requests served from a cached configuration
	MeanSecs float64
}

// templateVsDAG issues a2Requests requests alternating between generic
// workspaces (exact template hits) and personalized ones (template
// misses that fall back to a blank image and a full install; DAG
// matching serves them from the partial image).
func (t *transcript) templateVsDAG(label string, seed int64, cfg plant.Config) (templateSide, error) {
	d, err := NewDeployment(Options{Seed: seed, GoldenSizesMB: []int{64}, PublishBlank: true, PlantConfig: cfg})
	if err != nil {
		return templateSide{}, err
	}
	recs, err := d.runSeries(a2Requests, 64, func(seq, memMB int) (*core.Spec, error) {
		spec, err := d.WorkspaceSpec(seq, memMB)
		if err == nil && seq%2 == 1 {
			spec.Graph, err = GenericDAG()
		}
		return spec, err
	})
	t.logRecords(label, recs)
	side := templateSide{MeanSecs: mean(recs, createTimes)}
	for _, r := range recs {
		if r.MatchedOps > 0 {
			side.Hits++
		}
	}
	return side, err
}

// Request counts of A1, A2 and A3.
const a1Requests, a2Requests, a3Requests = 4, 8, 4

// ablationsResult is what each of the paper's mechanisms buys.
type ablationsResult struct {
	transcript
	NoMatch       ablation // A1: partial matching off, every creation installs the OS on a blank image
	Template, DAG templateSide
	CopyClone     ablation // A3: full disk copies instead of link clones
}

func runAblations(seed int64) (*ablationsResult, error) {
	res := &ablationsResult{}
	var err error
	if res.NoMatch, err = res.ablate("A1", seed, a1Requests, plant.Config{DisablePartialMatch: true}, true); err != nil {
		return nil, err
	}
	if res.Template, err = res.templateVsDAG("A2 template", seed, plant.Config{TemplateMatch: true}); err != nil {
		return nil, err
	}
	if res.DAG, err = res.templateVsDAG("A2 dag", seed, plant.Config{}); err != nil {
		return nil, err
	}
	if res.CopyClone, err = res.ablate("A3", seed, a3Requests, plant.Config{CloneMode: vdisk.CloneByCopy}, false); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *ablationsResult) Report() []string {
	return []string{
		fmt.Sprintf("A1 no partial matching: %.1f s → %.1f s per create (%.0f× slower)",
			r.NoMatch.BaselineSecs, r.NoMatch.VariantSecs, r.NoMatch.Factor),
		fmt.Sprintf("A2 template matching:   %d/%d cache hits vs %d/%d with DAGs; mean %.1f s vs %.1f s",
			r.Template.Hits, a2Requests, r.DAG.Hits, a2Requests, r.Template.MeanSecs, r.DAG.MeanSecs),
		fmt.Sprintf("A3 copy-clone:          %.1f s → %.1f s per create (%.0f× slower)",
			r.CopyClone.BaselineSecs, r.CopyClone.VariantSecs, r.CopyClone.Factor),
	}
}

func (r *ablationsResult) Violations() []string {
	var g gate
	// A full OS install (~20 min) against tens of seconds.
	g.check(r.NoMatch.Factor >= 10, "A1 no-partial-match factor %.1f, want ≥ 10", r.NoMatch.Factor)
	g.check(r.NoMatch.Served, "A1 did not serve every request")
	// Templates hit only the generic half; DAG matching hits everything,
	// and every template miss pays the install.
	g.check(r.Template.Hits == a2Requests/2 && r.DAG.Hits == a2Requests,
		"A2 cache hits %d (template) and %d (DAG) of %d, want %d and %d", r.Template.Hits, r.DAG.Hits, a2Requests, a2Requests/2, a2Requests)
	g.check(r.Template.MeanSecs > 3*r.DAG.MeanSecs, "A2 template mean %.1f s not above 3× the DAG mean %.1f s", r.Template.MeanSecs, r.DAG.MeanSecs)
	g.check(r.CopyClone.Factor >= 3, "A3 copy-clone factor %.1f, want ≥ 3", r.CopyClone.Factor)
	return g
}

// precreation compares on-demand cloning against speculative
// pre-creation (paper §4.3/§6: "latency-hiding optimizations such as
// speculative pre-creation of VMs can be conceived, but have not yet
// been investigated" — investigated here as extension E9).
type precreation struct {
	ColdSecs, WarmSecs float64 // mean creation: on demand, from the pool
	Hits               int
	Speedup            float64 // cold mean / warm mean
}

// precreate issues n requests against a single plant twice: cold, and
// with a pool of n pre-created clones built during idle time. With the
// UML backend it reproduces the study the paper left open (§4.1: "With
// checkpointing techniques such as SBUML, it is possible to clone
// virtual machines from the corresponding snapshots and resume them
// without a full reboot" — "the subject of on-going experimental
// studies"): pre-created UML clones resume from their checkpoint,
// skipping the ≈76 s boot.
func (t *transcript) precreate(label string, seed int64, n int, backend string) (precreation, error) {
	opts := Options{Seed: seed, Plants: 1, GoldenSizesMB: []int{64}, Backend: backend}
	_, cold, err := t.series(label+" cold", opts, n, 64)
	if err != nil {
		return precreation{}, err
	}
	warm, err := NewDeployment(opts)
	if err != nil {
		return precreation{}, err
	}
	if err := warm.Run(func(p *sim.Proc) error {
		return warm.Plants[0].Precreate(p, GoldenName(64, warm.Opts.Backend), n)
	}); err != nil {
		return precreation{}, fmt.Errorf("precreate: %w", err)
	}
	recs, err := warm.runCreationSeries(n, 64)
	t.logRecords(label+" warm", recs)
	res := precreation{ColdSecs: mean(cold, createTimes), WarmSecs: mean(recs, createTimes)}
	for _, cs := range warm.Plants[0].CreationLog() {
		if cs.PrecreateHit {
			res.Hits++
		}
	}
	res.Speedup = ratio(res.ColdSecs, res.WarmSecs)
	return res, err
}

// migration measures live VM relocation (paper §6 future work:
// "migration of active VMs across plants") against the alternative of
// destroying and re-creating the VM on the destination.
type migration struct {
	MigrateSecs, RecreateSecs float64 // means
	Speedup                   float64
}

// migrate creates n VMs on one plant and moves each to a second plant,
// comparing migration latency with fresh re-creation latency.
func (t *transcript) migrate(seed int64, n int) (migration, error) {
	d, err := NewDeployment(Options{Seed: seed, Plants: 2, GoldenSizesMB: []int{64}})
	if err != nil {
		return migration{}, err
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
			t.logf("E10 #%d migrate=%v recreate=%v", i, migrate[i-1], recreate[i-1])
		}
		return nil
	})
	res := migration{MigrateSecs: stats.Summarize(migrate).Mean, RecreateSecs: stats.Summarize(recreate).Mean}
	res.Speedup = ratio(res.RecreateSecs, res.MigrateSecs)
	return res, err
}

// parking measures the idle-workspace lifecycle: suspending a workspace
// frees its host memory; resuming it is far cheaper than re-creating
// it.
type parking struct {
	SuspendSecs, ResumeSecs, CreateSecs float64 // means
	CommittedBefore                     int     // node MB committed with all workspaces running
	CommittedParked                     int     // node MB committed with all workspaces suspended
}

// park creates n workspaces on one plant, parks them all, then resumes
// them, recording each transition's latency and the node's committed
// memory.
func (t *transcript) park(seed int64, n int) (parking, error) {
	d, recs, err := t.series("E13", Options{Seed: seed, Plants: 1, GoldenSizesMB: []int{64}}, n, 64)
	if err != nil {
		return parking{}, err
	}
	res := parking{CreateSecs: mean(recs, createTimes)}
	var suspend, resume []float64
	timed := func(p *sim.Proc, what string, op func(*sim.Proc, core.VMID) error, out *[]float64) error {
		for _, rec := range recs {
			start := p.Now()
			if err := op(p, rec.VMID); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			*out = append(*out, (p.Now() - start).Seconds())
			t.logf("E13 %s #%d %v", what, rec.Seq, (p.Now() - start).Seconds())
		}
		return nil
	}
	err = d.Run(func(p *sim.Proc) error {
		res.CommittedBefore = d.Testbed.Nodes[0].CommittedMB()
		if err := timed(p, "suspend", d.Shop.Suspend, &suspend); err != nil {
			return err
		}
		res.CommittedParked = d.Testbed.Nodes[0].CommittedMB()
		return timed(p, "resume", d.Shop.Resume, &resume)
	})
	res.SuspendSecs, res.ResumeSecs = stats.Summarize(suspend).Mean, stats.Summarize(resume).Mean
	return res, err
}

// Request counts of E9, E10, E11 and E13.
const poolRequests, migrations, umlPoolRequests, parkedWorkspaces = 6, 4, 4, 5

// extensionsResult is the paper's §6 future work, measured.
type extensionsResult struct {
	transcript
	Pool      precreation // E9
	Migration migration   // E10
	UMLPool   precreation // E11
	Parking   parking     // E13
}

func runExtensions(seed int64) (*extensionsResult, error) {
	res := &extensionsResult{}
	var err error
	if res.Pool, err = res.precreate("E9", seed, poolRequests, warehouse.BackendVMware); err != nil {
		return nil, err
	}
	if res.Migration, err = res.migrate(seed, migrations); err != nil {
		return nil, err
	}
	if res.UMLPool, err = res.precreate("E11", seed, umlPoolRequests, warehouse.BackendUML); err != nil {
		return nil, err
	}
	if res.Parking, err = res.park(seed, parkedWorkspaces); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *extensionsResult) Report() []string {
	return []string{
		fmt.Sprintf("E9 speculative pre-creation: %.1f s → %.1f s per create (%.1f× faster, %d/%d pool hits)",
			r.Pool.ColdSecs, r.Pool.WarmSecs, r.Pool.Speedup, r.Pool.Hits, poolRequests),
		fmt.Sprintf("E10 VM migration:            %.1f s to migrate vs %.1f s to re-create (%.1f× faster)",
			r.Migration.MigrateSecs, r.Migration.RecreateSecs, r.Migration.Speedup),
		fmt.Sprintf("E11 SBUML-style UML resume:  %.1f s boot → %.1f s checkpoint resume (%.1f× faster)",
			r.UMLPool.ColdSecs, r.UMLPool.WarmSecs, r.UMLPool.Speedup),
		fmt.Sprintf("E13 workspace parking:       suspend %.1f s, resume %.1f s (vs %.1f s re-create); %d MB → %d MB committed while parked",
			r.Parking.SuspendSecs, r.Parking.ResumeSecs, r.Parking.CreateSecs,
			r.Parking.CommittedBefore, r.Parking.CommittedParked),
	}
}

func (r *extensionsResult) Violations() []string {
	var g gate
	// Pre-creation removes the NFS state copy from the critical path;
	// resume, configuration and protocol remain, so the end-to-end gain
	// is a solid fraction, not an order of magnitude.
	g.check(r.Pool.Hits == poolRequests, "E9 pool hits %d of %d", r.Pool.Hits, poolRequests)
	g.check(r.Pool.Speedup >= 1.15, "E9 pre-creation speedup %.2f×, want ≥ 1.15×", r.Pool.Speedup)
	g.check(r.Migration.Speedup >= 1.2, "E10 migration speedup %.2f× (migrate %.1f s vs re-create %.1f s), want ≥ 1.2×",
		r.Migration.Speedup, r.Migration.MigrateSecs, r.Migration.RecreateSecs)
	// A checkpoint resume skips the ≈76 s boot entirely, so the gain is
	// far larger than for the VMware line.
	g.check(r.UMLPool.Hits == umlPoolRequests, "E11 pool hits %d of %d", r.UMLPool.Hits, umlPoolRequests)
	g.check(r.UMLPool.Speedup >= 2.5, "E11 UML checkpoint speedup %.2f×, want ≥ 2.5×", r.UMLPool.Speedup)
	g.check(r.Parking.CommittedBefore > 0 && r.Parking.CommittedParked == 0,
		"E13 committed memory %d MB running, %d MB parked, want > 0 and 0", r.Parking.CommittedBefore, r.Parking.CommittedParked)
	g.check(r.Parking.ResumeSecs < r.Parking.CreateSecs/2, "E13 resume %.1f s not below half of a %.1f s create", r.Parking.ResumeSecs, r.Parking.CreateSecs)
	return g
}
