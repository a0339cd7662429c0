// Command bench is the repository's benchmark: four workloads driven
// through the production preset in epochs, reporting end-to-end metrics
// (gated by BENCHMARK.json) from an untraced run and per-layer metrics
// from a traced one. See README.md.
//
//	go run -C bench . --workload churn --seed 1 --seconds 30 --trace 0
//	go run -C bench . --seed 1 --out report.json --timeline-output timeline.csv
//	go run -C bench . --selfcheck
//	go run -C bench . --sets 2 --runs 5
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// result is one workload's run, gated or traced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Epochs    int               `json:"epochs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failure   string            `json:"last_failure,omitempty"`
	Metrics   map[string]metOut `json:"metrics"`
	// TIME-WAIT sockets on the machine before and after the run: the
	// tcp workload's own litter, and a neighbour's.
	TimeWaitBefore int `json:"time_wait_before"`
	TimeWaitAfter  int `json:"time_wait_after"`

	metrics  []metric       // in report order
	timeline []*epochResult // gated run only
	exact    int
}

type metOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

func runWorkload(w *workloadDef, o runOptions, traced bool, traceDir string) (*result, error) {
	r := &result{Workload: w.name, Seed: o.seed, Traced: traced, TimeWaitBefore: timeWaitSockets()}
	if traced {
		t, err := runTraced(w, o)
		if err != nil {
			return nil, err
		}
		r.metrics = t.perLayer()
		r.Epochs = len(t.traced) + len(t.untraced)
		r.Attempted, r.Failed, r.Failure = t.counts()
		if err := t.tr.write(filepath.Join(traceDir, "trace-"+w.name+".json"), 2); err != nil {
			return nil, err
		}
	} else {
		g, err := runGated(w, o)
		if err != nil {
			return nil, err
		}
		r.metrics = g.endToEnd()
		r.Epochs, r.timeline, r.exact = len(g.epochs), g.epochs, g.exact
		r.Attempted, r.Failed, r.Failure = g.counts()
	}
	r.TimeWaitAfter = timeWaitSockets()
	r.Metrics = make(map[string]metOut, len(r.metrics))
	for _, m := range r.metrics {
		r.Metrics[m.name] = metOut{m.value, m.unit, m.note}
	}
	return r, nil
}

func (r *result) print() {
	fmt.Printf("workload %s seed %d: %d epochs, %d operations attempted, %d failed, TIME-WAIT %d → %d\n",
		r.Workload, r.Seed, r.Epochs, r.Attempted, r.Failed, r.TimeWaitBefore, r.TimeWaitAfter)
	if r.Failure != "" {
		fmt.Printf("  last failure: %s\n", r.Failure)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-38s %16.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// contractLine is the last line the driver reads.
func (r *result) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = mv{m.value, m.unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
	return string(blob), err // a NaN or an infinity among the metrics is an error, not a result
}

// writeTimeline writes one row per epoch with every host-time sample,
// so machine drift shows as a trend instead of vanishing into a median.
func writeTimeline(path string, results []*result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	w.Write([]string{"workload", "epoch", "pooled_in_exact_metrics", "setup_cpu_s", "cpu_us_per_create", "timed_wall_s",
		"creates_per_s", "allocs_per_create", "gc_cycles", "heap_live_mb", "query_cpu_us", "restart_wall_ms", "destroy_cpu_us", "failed", "machine_slowdown"})
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', 8, 64) }
	for _, r := range results {
		for i, e := range r.timeline {
			w.Write([]string{r.Workload, strconv.Itoa(i), strconv.FormatBool(i < r.exact),
				g(e.setup.cpu), g(e.cpuUSPerCreate()), g(e.timed.wall),
				g(ratio(float64(e.lifecycles), e.timed.wall)), g(ratio(e.timed.allocs, float64(e.lifecycles))),
				g(e.timed.gcCycles), g(e.heapLiveMB), g(ratio(e.query.cpu*1e6, float64(e.queries))),
				g(e.restart.wall * 1e3), g(ratio(e.destroy.cpu*1e6, float64(e.destroys))), strconv.Itoa(e.failed), g(e.slowdown)})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 30, "how long one workload's run measures")
		trace     = flag.Int("trace", 0, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics")
		out       = flag.String("out", "", "write the JSON report here")
		timeline  = flag.String("timeline-output", "", "write the per-epoch timeline CSV here")
		traceDir  = flag.String("trace-dir", ".", "where the traced run writes trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "check that two same-seed runs give identical virtual and count metrics")
		sets      = flag.Int("sets", 0, "noise report: this many sets of --runs runs of every workload")
		runs      = flag.Int("runs", 5, "noise report: runs per set")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU())) // the sizing assumes at most two cores
	switch {
	case *selfcheck:
		if diffs := selfCheck(*seed, 2); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Println(d)
			}
			os.Exit(1)
		}
		fmt.Println("selfcheck: churn, batch and catalog repeat exactly")
		return
	case *sets > 0:
		if err := noiseReport(*sets, *runs, *seconds); err != nil {
			fail(err)
		}
		return
	}

	selected := workloads()
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workloadDef{w}
	}
	var results []*result
	for _, w := range selected {
		r, err := runWorkload(w, runOptions{seed: *seed, seconds: *seconds}, *trace != 0, *traceDir)
		if err != nil {
			fail(err) // an audit violation or a broken run: no result line
		}
		r.print()
		results = append(results, r)
	}
	if *out != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if *timeline != "" {
		if err := writeTimeline(*timeline, results); err != nil {
			fail(err)
		}
	}
	if *name != "" {
		line, err := results[0].contractLine()
		if err != nil {
			fail(err)
		}
		fmt.Println(line)
	}
}
