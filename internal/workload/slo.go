package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// sloParams size the two phases: a clean batched warm burst, then
// serial creations issued after the fault mix is switched on.
type sloParams struct{ warmBatch, chaosRequests int }

// sloMix is the chaos-phase cocktail — transport and clone faults only,
// never a plant crash, so every creation resolves inside one Shop.Create
// via failover and the span-tree invariant has no legitimate exception.
var sloMix = faultMix{rpcDrop: 0.08, slowBidProb: 0.08, slowBidDelay: 3 * time.Second, cloneIO: 0.08}

// DefaultSLOObjectives declares the stack's standing objectives. The
// bounds are generous against the calibrated testbed on purpose: the
// gate is "the pipeline did not regress into pathology", not a tuning
// knob. Daemons install the same set.
func DefaultSLOObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "create.p99", Hist: "shop.create_secs", Quantile: 0.99, MaxSeconds: 300},
		{Name: "clone.p99", Hist: "plant.clone_secs", Quantile: 0.99, MaxSeconds: 120},
		{Name: "create.success", Good: "shop.creations", Bad: "shop.create_failures", MinRatio: 0.9},
	}
}

// sloResult is one runSLO outcome.
type sloResult struct {
	transcript // every virtual-time observable
	Requests   int
	Succeeded  int

	// Span-tree audit over every trace the run produced.
	Traces        int
	SpanCount     int
	OrphanSpans   int // spans whose parent is missing from their trace
	ExtraRoots    int // traces with more than one root span
	Incomplete    int // successful creations missing a required span
	TracerDropped uint64

	Objectives []telemetry.ObjectiveStatus
	SLOsHold   bool

	Injections map[string]int64
	CreateSecs stats.Summary

	// Spans is the full span set, for Chrome trace export.
	Spans []telemetry.Span
}

// TreeOK reports the span-tree invariant: complete rings, zero orphans,
// one root per trace, every required span present for every success.
func (r *sloResult) TreeOK() bool {
	return r.TracerDropped == 0 && r.OrphanSpans == 0 && r.ExtraRoots == 0 && r.Incomplete == 0
}

// requiredSpans is the lifecycle every successful creation's trace must
// hold: submission and the winning bid at the shop, then the plant's
// admission, clone and configuration stages.
var requiredSpans = []string{"shop.create", "shop.bid", "plant.create", "admission", "clone", "configure"}

// runSLO is the observability stack's own gate: a mixed warm/chaos
// burst of 64 MB creations on 4 plants whose every creation — batched,
// serial, faulted-over — must yield exactly one rooted span tree
// crossing all three layers (shop, plant, clone/verify) with every
// lifecycle stage, and SLOs that hold under the injected faults.
func runSLO(seed int64, par sloParams) (*sloResult, error) {
	const (
		memMB         = 64
		clientRetries = 4 // re-submissions of a request the shop failed outright
	)
	hub := telemetry.New()
	// The audit needs the complete span set: size the ring far above
	// what the burst can produce so nothing is evicted.
	hub.Tracer = telemetry.NewTracer(1 << 16)

	// The fault registry starts empty — the warm phase runs clean — and
	// gets the chaos mix's rules between phases.
	d, reg, err := newFaultedSite(104729, Options{
		Plants:        4,
		Seed:          seed,
		GoldenSizesMB: []int{memMB},
		Telemetry:     hub,
	})
	if err != nil {
		return nil, err
	}
	d.Shop.BidTimeout = bidTimeout
	installSLOs(hub)

	res := &sloResult{Requests: par.warmBatch + par.chaosRequests}
	var createdIDs []core.VMID
	var secs []float64

	// Phase 1 — warm burst: a clean batch through the creation pipeline.
	specs := make([]*core.Spec, par.warmBatch)
	for i := range specs {
		specs[i], err = d.WorkspaceSpec(i+1, memMB)
		if err != nil {
			return nil, err
		}
	}
	err = d.Run(func(p *sim.Proc) error {
		for i, r := range d.Shop.CreateMany(p, specs) {
			if r.Err != nil {
				res.logf("warm %d FAILED %v", i+1, r.Err)
				continue
			}
			res.Succeeded++
			createdIDs = append(createdIDs, r.VMID)
			res.logf("warm %d ok %s", i+1, r.VMID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — chaos burst: transport and clone faults on, serial
	// creations. Every fault resolves inside one Shop.Create (failover,
	// re-bid), so each request still yields exactly one trace.
	sloMix.arm(reg)

	err = d.Run(func(p *sim.Proc) error {
		for i := 1; i <= par.chaosRequests; i++ {
			spec, err := d.WorkspaceSpec(par.warmBatch+i, memMB)
			if err != nil {
				return err
			}
			start := p.Now()
			id, _, _, cerr := createRetrying(p, d.Shop, spec, clientRetries, backoff(p, 2*time.Second))
			if cerr != nil {
				res.logf("chaos %d FAILED %v", i, cerr)
				continue
			}
			res.Succeeded++
			createdIDs = append(createdIDs, id)
			secs = append(secs, (p.Now() - start).Seconds())
			res.logf("chaos %d ok %s route=%s", i, id, d.Shop.RouteOf(id))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.CreateSecs = stats.Summarize(secs)

	// Audit 1 — span trees. Group every finished span by trace; each
	// group must have exactly one root and no span may reference a
	// parent outside its group.
	res.Spans = hub.T().Spans()
	res.SpanCount = len(res.Spans)
	res.TracerDropped = hub.T().Dropped()
	byTrace := make(map[uint64][]telemetry.Span)
	for _, s := range res.Spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	res.Traces = len(byTrace)
	traceIDs := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		traceIDs = append(traceIDs, id)
	}
	sort.Slice(traceIDs, func(i, j int) bool { return traceIDs[i] < traceIDs[j] })
	for _, tid := range traceIDs {
		group := byTrace[tid]
		ids := make(map[uint64]bool, len(group))
		for _, s := range group {
			ids[s.ID] = true
		}
		roots, orphans := 0, 0
		names := make([]string, 0, len(group))
		for _, s := range group {
			names = append(names, s.Name)
			if s.Parent == 0 {
				roots++
			} else if !ids[s.Parent] {
				orphans++
			}
		}
		if roots > 1 {
			res.ExtraRoots++
		}
		res.OrphanSpans += orphans
		sort.Strings(names)
		res.logf("trace %d roots=%d orphans=%d spans=[%s]", tid, roots, orphans, strings.Join(names, ","))
	}

	// Audit 2 — lifecycle coverage, per successful creation: the trace
	// must hold every required span, from submission to configuration.
	rootOf := make(map[string]uint64) // vmid → trace
	for _, s := range res.Spans {
		if s.Name == "shop.create" {
			rootOf[s.Attr("vmid")] = s.TraceID
		}
	}
	for _, id := range createdIDs {
		have := make(map[string]bool)
		for _, s := range byTrace[rootOf[string(id)]] {
			have[s.Name] = true
		}
		for _, name := range requiredSpans {
			if !have[name] {
				res.Incomplete++
				res.logf("incomplete trace for %s: no %s span", id, name)
				break
			}
		}
	}

	// Audit 3 — objectives, evaluated at the end of virtual time.
	res.Objectives, res.SLOsHold = evaluateSLOs(hub, d.Kernel.Now(), &res.transcript)

	res.Injections = reg.Counts()
	res.lines = append(res.lines, reg.Summary()...)
	res.logf("traces=%d spans=%d orphans=%d extra_roots=%d incomplete=%d dropped=%d end=%s",
		res.Traces, res.SpanCount, res.OrphanSpans, res.ExtraRoots, res.Incomplete,
		res.TracerDropped, d.Kernel.Now())
	return res, nil
}

// Violations lists the observability invariants the run broke.
func (r *sloResult) Violations() []string {
	var g gate
	g.check(r.Succeeded == r.Requests, "succeeded %d of %d requests", r.Succeeded, r.Requests)
	g.check(r.TreeOK(), "span-tree invariant violated: orphans=%d extra_roots=%d incomplete=%d dropped=%d",
		r.OrphanSpans, r.ExtraRoots, r.Incomplete, r.TracerDropped)
	for _, st := range r.Objectives {
		g.check(st.OK, "objective %s violated: value=%v bound=%v", st.Name, st.Value, st.Bound)
	}
	g.check(len(r.Objectives) == len(DefaultSLOObjectives()),
		"%d objective statuses, want %d", len(r.Objectives), len(DefaultSLOObjectives()))
	// The chaos phase must actually have injected something, or the
	// gate proves nothing.
	g.check(len(r.Injections) > 0, "chaos phase injected no faults")
	return g
}

// Artifacts is the run's span set as a Chrome trace: deterministic
// (virtual time only), so it doubles as a golden timeline.
func (r *sloResult) Artifacts() []Artifact {
	return []Artifact{chromeTrace("trace.json", r.Spans)}
}

// Report renders the run as printable lines.
func (r *sloResult) Report() []string {
	out := []string{
		fmt.Sprintf("requests:          %d", r.Requests),
		fmt.Sprintf("succeeded:         %d (%.0f%%)", r.Succeeded, 100*float64(r.Succeeded)/float64(r.Requests)),
		fmt.Sprintf("traces:            %d (%d spans)", r.Traces, r.SpanCount),
		fmt.Sprintf("orphan spans:      %d", r.OrphanSpans),
		fmt.Sprintf("multi-root traces: %d", r.ExtraRoots),
		fmt.Sprintf("incomplete traces: %d", r.Incomplete),
		fmt.Sprintf("ring drops:        spans=%d", r.TracerDropped),
		fmt.Sprintf("chaos create secs: %s", r.CreateSecs),
	}
	out = append(out, objectiveReport(r.Objectives)...)
	return append(out, injectionReport(r.Injections)...)
}
