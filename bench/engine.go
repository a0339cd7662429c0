package main

import (
	"fmt"
	"runtime"
	"time"
)

// epochResult is everything one epoch measured.
type epochResult struct {
	setup hostDelta // build the site, publish, fill the resident set

	timed      hostDelta // the lifecycles
	timedVirt  float64   // virtual seconds the timed phase spanned
	lifecycles int
	creates    int       // successful creations in the timed phase
	createVirt []float64 // their client-observed virtual latencies, s

	query   hostDelta
	queries int

	restart  hostDelta
	replayed int // journal records the restart replayed

	destroy  hostDelta
	destroys int

	attempted, failed int
	lastFailure       string
	heapLiveMB        float64 // after the collection that follows the epoch
	// slowdown is the mean of machineSlowdown measured just before and
	// just after the epoch; the two gated host times are divided by it.
	slowdown float64

	// Traced epochs only.
	layers                   layers
	matchedOps, requestedOps int
	wire                     wireCounts

	micro microInputs
}

// cpuUSPerCreate is the timed phase's raw CPU-µs per lifecycle.
func (r *epochResult) cpuUSPerCreate() float64 { return ratio(r.timed.cpu*1e6, float64(r.lifecycles)) }

// workloadDef is one of the benchmark's workloads.
type workloadDef struct {
	name string
	why  string
	// exactEpochs is how many epochs the virtual-clock and count metrics
	// pool. It is fixed, so those metrics are a function of the seed
	// alone; the run goes on past it, until its time is up, only to
	// give the host-time estimators more samples.
	exactEpochs int
	load
}

// runOptions says how long and how to run one workload.
type runOptions struct {
	seed    int64
	seconds float64
	// epochs, when non-zero, runs exactly that many epochs and ignores
	// the clock (self-check and tests).
	epochs int
}

// epochSeed spaces the runs' seed ranges apart so that two runs with
// neighbouring --seed values share no epoch.
func epochSeed(seed int64, epoch int) int64 { return seed*4096 + int64(epoch) }

// gatedRun is the untraced run: the end-to-end metrics.
type gatedRun struct {
	epochs  []*epochResult
	exact   int // leading epochs the exact metrics pool
	peakRSS float64
}

// runGated runs epochs until the time is up (and at least the exact
// prefix), collecting garbage between epochs so that one epoch's heap
// is neither the next one's GC work nor the calibration's.
func runGated(w *workloadDef, o runOptions) (*gatedRun, error) {
	g := &gatedRun{}
	began := time.Now()
	need := w.exactEpochs
	if o.epochs > 0 {
		need = o.epochs
	}
	runtime.GC()
	before := machineSlowdown()
	for e := 0; ; e++ {
		if e >= need && (o.epochs > 0 || time.Since(began).Seconds() >= o.seconds) {
			break
		}
		res, err := w.epoch(epochSeed(o.seed, e), nil)
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", w.name, e, err)
		}
		g.epochs = append(g.epochs, res)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
		after := machineSlowdown()
		res.slowdown, before = (before+after)/2, after
	}
	g.exact = min(need, len(g.epochs))
	g.peakRSS = peakRSSMB()
	return g, nil
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts, quartiles: printed, not gated
}

// endToEnd computes the gated metrics. Virtual-clock and count metrics
// pool the exact prefix; the two host-time metrics are CPU time on the
// reference machine (each epoch's CPU time divided by the slowdown
// measured around it), median over every epoch run.
func (g *gatedRun) endToEnd() []metric {
	var virt, setups, cpus []float64
	var creates, virtSecs, lifecycles, allocs, allocKB, queries, qAllocs float64
	for i, e := range g.epochs {
		setups = append(setups, e.setup.cpu/e.slowdown)
		cpus = append(cpus, e.cpuUSPerCreate()/e.slowdown)
		if i >= g.exact {
			continue
		}
		virt = append(virt, e.createVirt...)
		creates += float64(e.creates)
		virtSecs += e.timedVirt
		lifecycles += float64(e.lifecycles)
		allocs += e.timed.allocs
		allocKB += e.timed.allocKB
		queries += float64(e.queries)
		qAllocs += e.query.allocs
	}
	tail, pct := highPercentile(virt)
	hostNote := func(xs []float64) string {
		return fmt.Sprintf("reference-machine CPU, median of %d epochs, IQR %.1f%%", len(xs), 100*relIQR(xs))
	}
	return []metric{
		{"setup_s", median(setups), "s", hostNote(setups)},
		{"create_virt_p50_s", median(virt), "s", fmt.Sprintf("%d samples over %d epochs", len(virt), g.exact)},
		{"create_virt_p99_s", tail, "s", fmt.Sprintf("p%d, %d samples beyond it", pct, beyond(len(virt), pct))},
		{"virt_goodput_per_min", ratio(creates, virtSecs/60), "1/min", fmt.Sprintf("%.0f creations in %.0f virtual s", creates, virtSecs)},
		{"cpu_us_per_create", median(cpus), "us", hostNote(cpus)},
		{"allocs_per_create", ratio(allocs, lifecycles), "count", ""},
		{"alloc_kb_per_create", ratio(allocKB, lifecycles), "KB", ""},
		{"allocs_per_query", ratio(qAllocs, queries), "count", ""},
		{"peak_rss_mb", g.peakRSS, "MB", "VmHWM at exit"},
	}
}

// exactNames are the end-to-end metrics that must repeat bit for bit
// between two runs of one seed on the in-process workloads.
var exactNames = map[string]bool{
	"create_virt_p50_s": true, "create_virt_p99_s": true, "virt_goodput_per_min": true,
}

// allocNames are the ones that must repeat within allocTolerance.
var allocNames = map[string]bool{
	"allocs_per_create": true, "alloc_kb_per_create": true, "allocs_per_query": true,
}

func (g *gatedRun) counts() (attempted, failed int, lastFailure string) {
	for _, e := range g.epochs {
		attempted += e.attempted
		failed += e.failed
		if e.lastFailure != "" {
			lastFailure = e.lastFailure
		}
	}
	return
}
