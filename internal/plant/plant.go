// Package plant implements the VMPlant service (paper §3.2, Figure 2):
// the per-node daemon whose Production Process Planner (PPP) matches
// creation requests against the VM Warehouse, drives the production
// line to clone and configure golden machines, maintains the VM
// Information System, allocates host-only networks to client domains,
// and answers the VMShop's cost-estimate (bid) requests.
package plant

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/dag"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/match"
	"vmplants/internal/sim"
	"vmplants/internal/simnet"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// Config tunes one plant.
type Config struct {
	// MaxVMs caps hosted VMs (the paper's §3.4 example uses 32);
	// 0 means unlimited.
	MaxVMs int
	// HostOnlyNetworks is the number of statically installed vmnet
	// switches (the paper's example uses 4).
	HostOnlyNetworks int
	// CostModel prices Estimate requests; nil selects the paper's
	// network+compute model.
	CostModel cost.Model
	// CloneMode selects link cloning (default) or the full-copy
	// ablation baseline.
	CloneMode vdisk.CloneMode
	// FailProb injects per-operation configuration failures: map of
	// action op → probability. New installs each entry as an ActionFail
	// rule on a registry sharing the plant's own RNG stream.
	//
	// It stays beside Faults by decision: its one product caller is the
	// Figure 4–6 scenario (internal/workload's runCreation, tuned to
	// the paper's observed 121/124/40 successes of 128/128/40 requests),
	// and moving that to the site's shared fault.Registry changes which
	// draws those figures see. The ROADMAP's seed-loop item (claims as
	// distributions) regenerates the goldens anyway and may fold it in;
	// anything else configures Faults, which covers crashes, RPC faults
	// and clone I/O errors as well.
	FailProb map[string]float64
	// Faults is the fault-injection registry every injection point in
	// the plant consults: DAG action failures, clone I/O errors,
	// mid-creation crashes, slow bids. nil disables injection.
	Faults *fault.Registry
	// DisablePartialMatch forces the PPP to ignore cached configuration
	// work and clone only from images with no performed actions — the
	// A1 ablation.
	DisablePartialMatch bool
	// TemplateMatch makes the PPP accept only exact-configuration
	// template hits (VirtualCenter-style), the A2 ablation.
	TemplateMatch bool
	// PolicyAd is an optional administrator-supplied classad merged
	// into the plant's resource ad; its Requirements expression lets a
	// site refuse requests during matchmaking (e.g.
	// `TARGET.MemoryMB <= 256 && TARGET.Domain != "banned.example"`).
	PolicyAd *classad.Ad
	// CloneSlots caps concurrently admitted clone state-copies (the
	// creation pipeline's per-plant admission control). 0 derives the
	// cap from the host's free memory and local disk bandwidth; see
	// deriveCloneSlots.
	CloneSlots int
	// PublishBack enables the warehouse learning loop: after a
	// creation whose residual plan ran at least publishBackResidual
	// actions, the plant checkpoints the configured VM copy-on-write
	// and publishes it to the warehouse as a derived golden image, so
	// the next similar request clones instead of reconfiguring.
	PublishBack bool
	// Telemetry receives the plant's spans and metrics; nil disables
	// instrumentation at zero cost.
	Telemetry *telemetry.Hub
}

// precreated is the plant's pool of speculatively pre-created clones
// (paper §4.3/§6: "latency-hiding optimizations such as speculative
// pre-creation of VMs can be conceived"): suspended, unconfigured
// clones of golden images that a matching creation request can resume
// instead of paying the full state copy.
type precreated struct {
	vm    *vmm.VM
	clone vmm.CloneStats // the cost paid off the critical path
}

// Plant is one VMPlant instance.
type Plant struct {
	name   string
	cfg    Config
	node   *cluster.Node
	wh     *warehouse.Warehouse
	nets   *simnet.NetPool
	macs   *simnet.MACPool
	info   *InfoSystem
	rng    *sim.RNG
	faults *fault.Registry

	// backends are the production lines: both of vmm's.
	backends vmm.Registry

	// mu guards the fields below: the creation log and the pre-created
	// pool are read by out-of-kernel observers (debug endpoints, tests)
	// while kernel processes append to them.
	mu        sync.Mutex
	pool      map[string][]precreated
	poolSeq   int
	creations []CreateStats
	down      bool
	// creating counts the slots reserve holds for in-flight creations and
	// incoming migrations, so concurrent arrivals cannot overshoot MaxVMs
	// between the capacity check and info.store.
	creating int

	// cloneGate is the admission-control semaphore: at most K clone
	// state-copies in flight (see admission.go). Only kernel processes
	// touch it, so it needs no lock.
	cloneGate *sim.Resource
	// waiting holds the lazy clones whose disks still read extents over
	// NFS, longest-waiting first; filler is the process landing those
	// extents in the node's image cache, nil when none runs; and
	// hydrationAborted says a clone's wait ever ended without its disk
	// whole (hydrate.go). Only kernel processes touch them.
	waiting          []*hydration
	filler           *sim.Proc
	hydrationAborted bool
	// host models the host-side runtime state that survives a daemon
	// death: the production line's VM processes keep running when the
	// management daemon dies. It is maintained continuously — a record
	// enters at creation and leaves at collect/migration — never copied
	// at crash time, so Recover always rebuilds the information system
	// from exactly what the host still runs. Classads are soft state
	// and are re-derived, not kept.
	host map[core.VMID]*record
	// jnl, when attached, receives the plant's lifecycle events
	// (vm-created, vm-collected, plant-crash, plant-recover) — the same
	// durability mechanism the shop and warehouse replay. Recovery
	// cross-checks its replay against the host scan.
	jnl *journal.Journal

	// Telemetry instruments, resolved once in New; all nil (no-op)
	// when cfg.Telemetry is nil.
	tel             *telemetry.Hub
	mCreates        *telemetry.Counter
	mCreateFails    *telemetry.Counter
	mCollects       *telemetry.Counter
	mMigrations     *telemetry.Counter
	mPrecreateHit   *telemetry.Counter
	mImageHits      *telemetry.Counter
	mImageMisses    *telemetry.Counter
	mCloneBytes     *telemetry.Counter
	mCloneLinks     *telemetry.Counter
	mCrashes        *telemetry.Counter
	mRecoveries     *telemetry.Counter
	mPublishBacks   *telemetry.Counter
	mVerifiedClones *telemetry.Counter
	gActiveVMs      *telemetry.Gauge
	hCreateSecs     *telemetry.Histogram
	hCloneSecs      *telemetry.Histogram
	hConfigSecs     *telemetry.Histogram

	gCloneInflight    *telemetry.Gauge
	gCloneInflightMax *telemetry.Gauge
	gAdmissionQueue   *telemetry.Gauge
	hAdmissionWait    *telemetry.Histogram

	mDemandFaults      *telemetry.Counter
	mReplicaHits       *telemetry.Counter
	mReplicaFills      *telemetry.Counter
	mSharedResumes     *telemetry.Counter
	mExtentHits        *telemetry.Counter
	mExtentFills       *telemetry.Counter
	mHydrationAborts   *telemetry.Counter
	hHydrationComplete *telemetry.Histogram
}

// CreateStats is one successful creation's plant-side latency; its
// timing lives in the span tree. It stays only because the frozen
// benchmark module reads it, until the ROADMAP's `benchmark` item
// (unfreeze what the perf PRs could not touch) deletes it.
type CreateStats struct {
	Total time.Duration // plant-side create latency
}

// New creates a plant on the given node, serving images from wh.
func New(name string, node *cluster.Node, wh *warehouse.Warehouse, cfg Config) *Plant {
	if cfg.CostModel == nil {
		cfg.CostModel = cost.DefaultNetworkCompute()
	}
	if cfg.HostOnlyNetworks <= 0 {
		cfg.HostOnlyNetworks = 4
	}
	tel := cfg.Telemetry
	rng := node.RNG().Child()
	// FailProb adapter: legacy per-op probabilities become ActionFail
	// rules. The registry draws from the plant's own RNG stream and
	// consumes exactly one draw per check with a matching rule — the
	// same draw pattern as the old inline Bernoulli — so existing
	// failure experiments replay byte-identically.
	faults := cfg.Faults
	if len(cfg.FailProb) > 0 {
		if faults == nil {
			faults = fault.NewWithRNG(rng)
		}
		for op, prob := range cfg.FailProb {
			faults.SetProb(name, fault.ActionFail, op, prob)
		}
	}
	pl := &Plant{
		name:   name,
		cfg:    cfg,
		node:   node,
		wh:     wh,
		nets:   simnet.NewNetPool(name+"/vmnet", cfg.HostOnlyNetworks),
		macs:   simnet.NewMACPool(),
		info:   NewInfoSystem(),
		pool:   make(map[string][]precreated),
		host:   make(map[core.VMID]*record),
		rng:    rng,
		faults: faults,

		backends: vmm.DefaultRegistry(),

		tel:             tel,
		mCreates:        tel.Counter("plant.creations"),
		mCreateFails:    tel.Counter("plant.create_failures"),
		mCollects:       tel.Counter("plant.collections"),
		mMigrations:     tel.Counter("plant.migrations"),
		mPrecreateHit:   tel.Counter("plant.precreate_hits"),
		mImageHits:      tel.Counter("warehouse.image_hits"),
		mImageMisses:    tel.Counter("warehouse.image_misses"),
		mCloneBytes:     tel.Counter("vmm.clone_bytes_copied"),
		mCloneLinks:     tel.Counter("vmm.clone_extents_linked"),
		mCrashes:        tel.Counter("plant.crashes"),
		mRecoveries:     tel.Counter("plant.recoveries"),
		mPublishBacks:   tel.Counter("plant.publish_backs"),
		mVerifiedClones: tel.Counter("plant.verified_clones"),
		gActiveVMs:      tel.Gauge("plant.active_vms"),
		hCreateSecs:     tel.Histogram("plant.create_secs"),
		hCloneSecs:      tel.Histogram("plant.clone_secs"),
		hConfigSecs:     tel.Histogram("plant.configure_secs"),

		gCloneInflight:    tel.Gauge("plant.clone_inflight"),
		gCloneInflightMax: tel.Gauge("plant.clone_inflight_max"),
		gAdmissionQueue:   tel.Gauge("plant.admission_queue"),
		hAdmissionWait:    tel.Histogram("plant.admission_wait_secs"),

		mDemandFaults:      tel.Counter("plant.demand_faults"),
		mReplicaHits:       tel.Counter("plant.memimage_replica_hits"),
		mReplicaFills:      tel.Counter("plant.memimage_replica_fills"),
		mSharedResumes:     tel.Counter("plant.memimage_shared_resumes"),
		mExtentHits:        tel.Counter("plant.extent_cache_hits"),
		mExtentFills:       tel.Counter("plant.extent_cache_fills"),
		mHydrationAborts:   tel.Counter("plant.hydration_aborts"),
		hHydrationComplete: tel.Histogram("plant.hydration_complete_secs"),
	}
	slots := cfg.CloneSlots
	if slots <= 0 {
		slots = pl.deriveCloneSlots()
	}
	pl.cloneGate = sim.NewResource(name+"/clone-slots", slots)
	return pl
}

// Name returns the plant's name.
func (pl *Plant) Name() string { return pl.name }

// Node returns the hosting node.
func (pl *Plant) Node() *cluster.Node { return pl.node }

// ActiveVMs reports how many VMs the plant currently hosts.
func (pl *Plant) ActiveVMs() int { return pl.info.Count() }

// Networks exposes the host-only network pool (the VNET server uses it
// to resolve a domain's switch).
func (pl *Plant) Networks() *simnet.NetPool { return pl.nets }

// CreationLog returns a defensive copy of the accumulated per-creation
// statistics, taken under the plant's mutex so concurrent observers
// (debug endpoints, tests) never race with an in-flight creation.
func (pl *Plant) CreationLog() []CreateStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]CreateStats(nil), pl.creations...)
}

// view snapshots the plant for the cost model. In-flight creations
// count against capacity: a bid must price the plant as it will be when
// the order lands, or a concurrent burst wins slots that are already
// spoken for.
func (pl *Plant) view(domain string) cost.PlantView {
	pl.mu.Lock()
	creating := pl.creating
	pl.mu.Unlock()
	return cost.PlantView{
		VMs:              pl.info.Count() + creating,
		MaxVMs:           pl.cfg.MaxVMs,
		FreeMemoryMB:     pl.node.FreeMB(),
		DomainHasNetwork: pl.nets.HasDomain(domain),
		FreeNetworks:     pl.nets.FreeCount(),
	}
}

// ResourceAd describes the plant as a classad for matchmaking during
// bidding: capacity and load attributes, plus the administrator's
// policy ad (including any site Requirements).
func (pl *Plant) ResourceAd() *classad.Ad {
	ad := classad.New().Grow(9+pl.cfg.PolicyAd.Len()).
		SetString("Plant", pl.name).
		SetString("Arch", "x86").
		SetInt("FreeMemoryMB", int64(pl.node.FreeMB())).
		SetInt("VMs", int64(pl.info.Count())).
		SetInt("MaxVMs", int64(pl.cfg.MaxVMs)).
		SetInt("FreeNetworks", int64(pl.nets.FreeCount())).
		SetInt("CloneSlots", int64(pl.cloneGate.Capacity())).
		SetInt("InflightClones", int64(pl.cloneGate.InUse())).
		SetValue("GoldenImages", pl.wh.GoldenImages())
	if pl.cfg.PolicyAd != nil {
		ad.Merge(pl.cfg.PolicyAd)
	}
	return ad
}

// Estimate prices a creation request (the bid of §3.4). Infeasible when
// the cost model refuses or no golden image can serve the request.
func (pl *Plant) Estimate(p *sim.Proc, spec *core.Spec) core.Cost {
	// Bid computation latency: small, but real on the wire.
	p.Sleep(sim.Seconds(0.02 * pl.node.Jitter()))
	// Slow-bid fault: an overloaded plant stalls its estimate; the
	// bidding round waits for it, so the whole round is late by the stall.
	if d := pl.faults.DelayFor(pl.name, fault.SlowBid, ""); d > 0 {
		p.Sleep(d)
	}
	// The bid's price never reads the plan, so it asks only whether one
	// exists.
	cands, err := pl.candidates(spec)
	if err != nil || !match.Any(spec.Hardware, spec.Graph, cands) {
		return core.Infeasible
	}
	return pl.cfg.CostModel.Estimate(pl.view(spec.Domain), spec.Hardware.MemoryMB)
}

// plan runs warehouse matching for a spec without side effects.
func (pl *Plant) plan(spec *core.Spec) (match.Ranked, error) {
	cands, err := pl.candidates(spec)
	if err != nil {
		return match.Ranked{}, err
	}
	best, ok := match.Best(spec.Hardware, spec.Graph, cands)
	if !ok {
		return match.Ranked{}, fmt.Errorf("plant %s: no golden machine matches the request", pl.name)
	}
	return best, nil
}

// candidates is the golden images the spec's backend may clone, less
// those the ablations' matching rules set aside.
func (pl *Plant) candidates(spec *core.Spec) ([]match.Candidate, error) {
	backend, err := pl.backends.Get(spec.Backend)
	if err != nil {
		return nil, err
	}
	cands := pl.wh.Candidates(backend.Name())
	if pl.cfg.DisablePartialMatch {
		var blank []match.Candidate
		for _, c := range cands {
			if len(c.Performed) == 0 {
				blank = append(blank, c)
			}
		}
		cands = blank
	}
	if pl.cfg.TemplateMatch {
		// Template provisioning: either an exact-configuration template
		// hit, or fall back to bare installation from a blank image —
		// there is no partial credit.
		var usable []match.Candidate
		for _, c := range cands {
			exact := c.Hardware.Satisfies(spec.Hardware) && match.TemplateEvaluate(spec.Graph, c.Performed).OK
			if exact || len(c.Performed) == 0 {
				usable = append(usable, c)
			}
		}
		cands = usable
	}
	return cands, nil
}

// Create is the PPP's production order (Figure 2): match, clone,
// configure, classad. The id is minted by the shop. The whole order is
// traced as a "plant.create" span with "plan", "clone" and "configure"
// children, so a trace reconstructs the paper's creation-time
// decomposition in virtual time.
func (pl *Plant) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (_ *classad.Ad, err error) {
	start := p.Now()
	// Joins the creation trace stamped on the proc (by the shop's
	// in-process call or by the daemon handler from the RPC envelope), or
	// roots its own when called directly.
	sp := pl.tel.T().StartCtx(p, "plant.create", p.Trace()).
		Set("plant", pl.name).
		Set("vmid", string(id))
	prevTrace := p.SetTrace(sp.Context())
	defer func() {
		p.SetTrace(prevTrace)
		sp.EndErr(p, err)
		if err != nil {
			pl.mCreateFails.Inc()
		}
	}()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Capacity check with reservation: a burst of concurrent orders
	// cannot overshoot MaxVMs between check and store.
	if !pl.reserve() {
		// Transient: the winning bid raced another order into the
		// last slot. The shop fails over to its next bidder — or, in
		// a federation, re-auctions among peer cells — instead of
		// reporting a dead-end to the client.
		return nil, fmt.Errorf("plant %s: %w: at VM capacity (%d)", pl.name, core.ErrTransient, pl.cfg.MaxVMs)
	}
	defer pl.unreserve()
	planSp := sp.Child(p, "plan")
	best, err := pl.plan(spec)
	if err != nil {
		planSp.EndErr(p, err)
		pl.mImageMisses.Inc()
		return nil, err
	}
	planSp.Set("golden", best.Candidate.ID).
		SetInt("matched_ops", int64(len(best.Result.Matched))).
		SetInt("residual_ops", int64(len(best.Result.Residual))).
		End(p)
	if len(best.Result.Matched) > 0 {
		pl.mImageHits.Inc()
	} else {
		pl.mImageMisses.Inc()
	}
	// Open the matched image: the first open of its integrity epoch
	// verifies it, later ones reuse that epoch's context.
	cctx, err := pl.wh.OpenClone(best.Candidate.ID)
	if err != nil {
		return nil, fmt.Errorf("plant %s: matched image %q unavailable: %w", pl.name, best.Candidate.ID, err)
	}
	golden := cctx.Image
	backend, err := pl.backends.Get(spec.Backend)
	if err != nil {
		return nil, err
	}

	// Everything the order holds from here on goes onto one undo list,
	// which any error exit runs newest first; stage is the child span
	// open at that exit, closed after the rollback so that it covers it.
	var undo [5]func() // network, image reference, clone slot, VM, hydrator
	held := 0
	hold := func(release func()) {
		undo[held] = release
		held++
	}
	rollback := func() {
		for ; held > 0; held-- {
			undo[held-1]()
		}
	}
	var stage *telemetry.Span
	defer func() {
		if err != nil {
			rollback()
			stage.EndErr(p, err)
		}
	}()

	// Host-only network for the client's domain.
	honet, _, err := pl.nets.Acquire(spec.Domain)
	if err != nil {
		return nil, fmt.Errorf("plant %s: %w", pl.name, err)
	}
	hold(func() { pl.nets.Release(spec.Domain) })

	golden.Ref() // the clone's disk links into the image's state
	hold(func() { golden.Unref() })

	// Clone — or resume a speculatively pre-created clone of the same
	// golden image, paying only the resume instead of the state copy.
	// The admission gate bounds in-flight state copies on this host; an
	// uncontended acquire costs zero virtual time.
	admitSp := sp.Child(p, "admission")
	releaseSlot := pl.admitClone(p)
	hold(releaseSlot)
	admitSp.End(p)
	cloneSp := sp.Child(p, "clone").
		Set("golden", golden.Name).
		Set("backend", backend.Name())
	stage = cloneSp
	cloneStart := p.Now()
	var vm *vmm.VM
	var cloneStats vmm.CloneStats
	hit := false
	if pre, ok := pl.takePrecreated(golden.Name); ok {
		err := pre.vm.Rebrand(id, spec.Name)
		if err == nil {
			err = pre.vm.Resume(p)
		}
		if err == nil {
			vm = pre.vm
			cloneStats = pre.clone // off-critical-path cost, for the record
			cloneStats.Total = p.Now() - cloneStart
			hit = true
			pl.mPrecreateHit.Inc()
		} else {
			// The parked clone is unusable (its memory image is gone from
			// the local disk, say): reap it and clone afresh below.
			pre.vm.Collect(p)
		}
		// Either way the pool's own image reference goes; a hit is
		// covered by the one this creation took above.
		golden.Unref()
	}
	if vm == nil {
		vm, cloneStats, err = backend.Clone(p, pl.node, cctx, id, pl.cfg.CloneMode)
		if err != nil {
			return nil, fmt.Errorf("plant %s: clone: %w", pl.name, err)
		}
		if cloneStats.ReplicaHit {
			pl.mReplicaHits.Inc()
		}
		if cloneStats.ReplicaFill {
			pl.mReplicaFills.Inc()
			pl.pruneCache()
		}
		if cloneStats.SharedResume {
			pl.mSharedResumes.Inc()
		}
	}
	hold(func() { vm.Collect(p) })
	if !hit {
		// Clone I/O fault: the state copy went bad (stale NFS read,
		// full local disk). The partial clone is destroyed and the
		// error marked transient so the shop fails over.
		if pl.faults.Should(pl.name, fault.CloneIO, "") {
			return nil, fmt.Errorf("plant %s: clone: %w: injected I/O error", pl.name, core.ErrTransient)
		}
		// Integrity gate: the state copy slept in virtual time, so the
		// image may have been quarantined or repaired underneath it. A
		// clone that read suspect bytes is destroyed and the transient
		// error re-bids the creation rather than resuming corrupt state.
		verifySp := cloneSp.Child(p, "verify").Set("golden", golden.Name)
		if err := pl.wh.VerifyClone(cctx); err != nil {
			verifySp.EndErr(p, err)
			return nil, fmt.Errorf("plant %s: clone: %w", pl.name, err)
		}
		verifySp.End(p)
		pl.mVerifiedClones.Inc()
	}
	pl.recordClone(cloneSp, cloneStart, cloneStats, backend.Name(), hit)
	cloneSp.End(p)
	stage = nil
	// The state copy is done: free the slot before configuration, which
	// contends on guest CPU rather than host disk.
	releaseSlot()
	// Lazy clone: the VM resumed without its disk extents, which it reads
	// from the node's image cache. Before any guest action can touch the
	// disk, extents not cached yet get the demand-fault hook and the
	// filler. (Pool hits were parked as link clones and need neither.)
	var lazy *warehouse.CloneContext
	if cloneStats.Mode == vdisk.CloneByLazy && !hit {
		lazy = cctx
		if pl.hydrate(p, vm, cctx, start, cloneSp) {
			hold(func() { pl.unhydrate(p, id, true) })
		}
	}
	if err := vm.AttachNIC(honet, pl.macs.Next()); err != nil {
		return nil, err
	}
	// Crash fault, mid-creation: the daemon dies between clone and
	// configuration. The production line reaps the half-built clone
	// first, so nothing is orphaned; the plant stays down until Recover.
	if pl.faults.Should(pl.name, fault.PlantCrash, "create") {
		rollback()
		pl.Crash()
		return nil, fmt.Errorf("plant %s: %w: plant crashed during creation", pl.name, core.ErrTransient)
	}

	// Configure the residual sub-graph.
	cfgSp := sp.Child(p, "configure").
		SetInt("nodes", int64(len(best.Result.Residual)))
	stage = cfgSp
	cfgStart := p.Now()
	if err := pl.configure(p, vm, spec.Graph, best.Result.Residual, cfgSp); err != nil {
		return nil, fmt.Errorf("plant %s: configure: %w", pl.name, err)
	}
	cfgSp.End(p)
	cfgTime := p.Now() - cfgStart

	// Classad for the information system and the client. The record
	// also enters the host map: that is the runtime state a daemon
	// crash cannot take down.
	ad := pl.buildAd(p, id, spec, vm, golden, best, cloneStats)
	rec := &record{vm: vm, ad: ad, domain: spec.Domain, golden: golden, lazy: lazy, createdAt: p.Now()}
	pl.info.store(rec)
	pl.mu.Lock()
	pl.host[id] = rec
	pl.mu.Unlock()
	pl.journalVM(p, id, true)
	total := p.Now() - start
	pl.mu.Lock()
	pl.creations = append(pl.creations, CreateStats{Total: total})
	pl.mu.Unlock()
	pl.mCreates.Inc()
	pl.gActiveVMs.Set(int64(pl.info.Count()))
	pl.hCreateSecs.Observe(total.Seconds())
	pl.hCloneSecs.Observe(cloneStats.Total.Seconds())
	pl.hConfigSecs.Observe(cfgTime.Seconds())
	pl.wh.NoteUse(golden.Name, best.Result.Score(), p.Now())
	pl.maybePublishBack(p, sp, vm, golden, len(best.Result.Residual))
	return ad.Clone(), nil
}

// publishBackResidual is the residual-plan length at which a creation
// is deemed expensive enough to checkpoint back (an In-VIGO workspace's
// first personalization runs 6 residual actions).
const publishBackResidual = 4

// maybePublishBack closes the warehouse learning loop after a
// successful creation: if the residual plan was long enough and the
// resulting configuration is not in the warehouse yet, the plant stuns
// the VM briefly for a copy-on-write checkpoint, then uploads and
// publishes the derived golden image off the critical path (a spawned
// kernel process charges the NFS transfer). Races between concurrent
// creations of the same configuration resolve at publish time: the
// loser's duplicate is simply dropped.
func (pl *Plant) maybePublishBack(p *sim.Proc, sp *telemetry.Span, vm *vmm.VM, golden *warehouse.Image, residual int) {
	if !pl.cfg.PublishBack || residual < publishBackResidual {
		return
	}
	history := vm.History()
	name := warehouse.DerivedName(vm.Backend(), history)
	if _, exists := pl.wh.Lookup(name); exists {
		return
	}
	// Derived images root at a seed: a checkpoint of a clone of a
	// derived image shares the same seed extents, so the seed is the
	// parent either way.
	parent := golden.Name
	if golden.Derived {
		parent = golden.Parent
	}
	// Brief stun while the copy-on-write checkpoint is taken.
	p.Sleep(sim.Seconds(0.5 * pl.node.Jitter()))
	snap := vm.Disk().Snapshot(name)
	im := &warehouse.Image{
		Name:      name,
		Hardware:  vm.Hardware(),
		Backend:   vm.Backend(),
		Performed: history,
		Guest:     vm.Guest().Clone(),
		Disk:      snap,
		Derived:   true,
		Parent:    parent,
	}
	sp.Set("publish_back", name)
	upload := im.CheckpointBytes()
	p.Kernel().Spawn(pl.name+"/publish-back/"+name, func(bp *sim.Proc) {
		// The derived state (redo log + memory checkpoint) streams to
		// the shared warehouse over the node's NFS path; the extents
		// are already there — the checkpoint shares the parent's.
		pl.node.Warehouse().Charge(bp, upload, pl.node.Jitter(), sim.Background)
		if err := pl.wh.PublishDerived(im, bp.Now()); err != nil {
			// Lost a race to an identical checkpoint, or the budget is
			// full of referenced images: drop the checkpoint.
			return
		}
		pl.mPublishBacks.Inc()
	})
}

// Warehouse returns the plant's image store.
func (pl *Plant) Warehouse() *warehouse.Warehouse { return pl.wh }

// recordClone decomposes the clone stage into "clone.copy" and
// "clone.resume"/"clone.boot" child spans from the backend's measured
// CloneStats, and feeds the byte counters. Phase spans are attached
// retroactively because the vmm.Backend interface reports stage
// timings rather than accepting a tracer.
func (pl *Plant) recordClone(cloneSp *telemetry.Span, cloneStart time.Duration, cs vmm.CloneStats, backend string, hit bool) {
	phase := "clone.resume" // vmware line: checkpoint resume
	if backend == "uml" {
		phase = "clone.boot" // uml line: fresh boot
	}
	if hit {
		cloneSp.Set("precreate_hit", "true")
		// Resume of a parked clone is the whole on-critical-path cost.
		cloneSp.RecordChild(phase, cloneStart, cloneStart+cs.Total, nil)
	} else {
		copyEnd := cloneStart + cs.CopyTime
		cloneSp.RecordChild("clone.copy", cloneStart, copyEnd, nil)
		// shared: the resume mapped a running VM's memory-image pages.
		cloneSp.RecordChild(phase, copyEnd, copyEnd+cs.ResumeTime, nil, telemetry.Attr{Key: "shared", Value: strconv.FormatBool(cs.SharedResume)})
	}
	cloneSp.SetInt("bytes_copied", cs.CopiedBytes)
	pl.mCloneBytes.Add(cs.CopiedBytes)
	pl.mCloneLinks.Add(int64(cs.LinkedFiles))
}

// configure executes the residual plan: guest actions are delivered via
// a configuration CD-ROM parsed by the guest agent, host actions run on
// the production line directly. Error policies (retries, handler
// sub-graphs, continue) follow the DAG's per-node declarations. Each
// node executes under an "action" child span of parent (nil disables
// tracing).
func (pl *Plant) configure(p *sim.Proc, vm *vmm.VM, g *dag.Graph, residual []string, parent *telemetry.Span) error {
	if len(residual) == 0 {
		return nil
	}
	// Burn every residual guest action onto one CD, in plan order. The
	// guest agent parses it; we then execute in plan order, interleaving
	// host actions at the right positions.
	guestActs := make([]dag.Action, 0, len(residual))
	for _, nid := range residual {
		n, ok := g.Node(nid)
		if !ok {
			return fmt.Errorf("residual node %q missing from DAG", nid)
		}
		if n.Action.Target == dag.Guest {
			guestActs = append(guestActs, n.Action)
		}
	}
	if len(guestActs) > 0 {
		cd, err := vmm.BuildConfigCD(guestActs)
		if err != nil {
			return err
		}
		if err := vm.AttachCD(p, cd); err != nil {
			return err
		}
		defer vm.DetachCD(p)
		// Cross-check what the guest agent read back, script by script.
		if got := vm.CDActions(); !slices.EqualFunc(got, guestActs, func(a, b dag.Action) bool {
			return a.Op == b.Op && a.Target == b.Target && maps.Equal(a.Params, b.Params)
		}) {
			return fmt.Errorf("guest agent parsed %d scripts that differ from the %d burned", len(got), len(guestActs))
		}
	}
	for _, nid := range residual {
		n, _ := g.Node(nid)
		asp := parent.Child(p, "action").
			Set("node", nid).
			Set("op", n.Action.Op)
		err := pl.runWithPolicy(p, vm, n)
		asp.EndErr(p, err)
		if err != nil {
			return fmt.Errorf("action %q (%s): %w", nid, n.Action.Op, err)
		}
	}
	return nil
}

// runWithPolicy executes one DAG node with its error policy: the action
// itself with injected-failure checks, retries, then the handler chain,
// then continue-or-abort.
func (pl *Plant) runWithPolicy(p *sim.Proc, vm *vmm.VM, n *dag.Node) error {
	attempt := func() error {
		if pl.faults.Should(pl.name, fault.ActionFail, n.Action.Op) {
			// The action consumed its time before failing.
			p.Sleep(sim.Seconds(0.5 * pl.node.Jitter()))
			return fmt.Errorf("injected failure in %s", n.Action.Op)
		}
		return pl.exec(p, vm, n.Action)
	}
	err := attempt()
	for r := 0; err != nil && r < n.OnError.Retries; r++ {
		err = attempt()
	}
	if err == nil {
		return nil
	}
	// Retries exhausted: run the error-handling sub-graph.
	for _, h := range n.OnError.Handler {
		if herr := pl.exec(p, vm, h); herr != nil {
			return fmt.Errorf("%w; error handler %s also failed: %v", err, h.Op, herr)
		}
	}
	if n.OnError.Continue {
		return nil
	}
	return err
}

func (pl *Plant) exec(p *sim.Proc, vm *vmm.VM, a dag.Action) error {
	if a.Target == dag.Host {
		return vm.ExecHostAction(p, a)
	}
	return vm.ExecGuestAction(p, a)
}

// buildAd assembles the creation classad: identity, configuration
// outputs (IP, MAC, credentials), and production metrics.
func (pl *Plant) buildAd(p *sim.Proc, id core.VMID, spec *core.Spec, vm *vmm.VM, golden *warehouse.Image, best match.Ranked, cs vmm.CloneStats) *classad.Ad {
	// Sixteen attributes set here, one per action output, and the two
	// the monitor and Query add later (CPULoad, UptimeSecs).
	ad := classad.New().Grow(18+len(vm.Guest().Outputs)).
		SetString(core.AttrVMID, string(id)).
		SetString(core.AttrName, spec.Name).
		SetString(core.AttrState, core.StateRunning.String()).
		SetInt(core.AttrMemoryMB, int64(spec.Hardware.MemoryMB)).
		SetInt(core.AttrDiskMB, int64(spec.Hardware.DiskMB)).
		SetString(core.AttrArch, spec.Hardware.Arch).
		SetString(core.AttrDomain, spec.Domain).
		SetString(core.AttrPlant, pl.name).
		SetString(core.AttrBackend, vm.Backend()).
		SetString(core.AttrNetwork, vm.Network().ID).
		SetString(core.AttrGoldenImage, golden.Name).
		SetInt(core.AttrMatchedOps, int64(len(best.Result.Matched))).
		SetReal(core.AttrCloneSecs, cs.Total.Seconds()).
		SetInt(core.AttrCreatedAt, int64(p.Now()/time.Second))
	if ip := vm.Guest().IP; ip != "" {
		ad.SetString(core.AttrIP, ip)
	}
	ad.SetString(core.AttrMAC, vm.MAC().String())
	// Action outputs (paper: "configuration-specific data resulting from
	// the output of action DAG nodes").
	for _, k := range sortedKeys(vm.Guest().Outputs) {
		ad.SetString("Out_"+sanitizeAttr(k), vm.Guest().Outputs[k])
	}
	return ad
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// sanitizeAttr maps an output key to a legal classad attribute name.
func sanitizeAttr(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Query returns a copy of an active VM's classad.
func (pl *Plant) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool) {
	p.Sleep(sim.Seconds(0.01 * pl.node.Jitter()))
	r, ok := pl.info.get(id)
	if !ok {
		return nil, false
	}
	r.ad.SetInt(core.AttrUptimeSecs, int64((p.Now()-r.createdAt)/time.Second))
	return r.ad.Clone(), true
}

// Collect destroys an active VM and reclaims its resources, including
// the domain's host-only network slot.
func (pl *Plant) Collect(p *sim.Proc, id core.VMID) error {
	r, ok := pl.info.get(id)
	if !ok {
		return fmt.Errorf("plant %s: no VM %s", pl.name, id)
	}
	pl.unhydrate(p, id, true)
	if err := r.vm.Collect(p); err != nil {
		return err
	}
	if err := pl.nets.Release(r.domain); err != nil {
		return err
	}
	if r.golden != nil {
		if err := r.golden.Unref(); err != nil {
			return err
		}
	}
	pl.info.remove(id)
	pl.mu.Lock()
	delete(pl.host, id)
	pl.mu.Unlock()
	pl.journalVM(p, id, false)
	pl.mCollects.Inc()
	pl.gActiveVMs.Set(int64(pl.info.Count()))
	return nil
}

// SuspendVM checkpoints an active VM and releases its host memory — how
// In-VIGO parks idle virtual workspaces. The classad tracks the state.
func (pl *Plant) SuspendVM(p *sim.Proc, id core.VMID) error {
	r, ok := pl.info.get(id)
	if !ok {
		return fmt.Errorf("plant %s: no VM %s", pl.name, id)
	}
	if err := r.vm.Suspend(p); err != nil {
		return err
	}
	r.ad.SetString(core.AttrState, "suspended")
	return nil
}

// ResumeVM brings a suspended VM back to running.
func (pl *Plant) ResumeVM(p *sim.Proc, id core.VMID) error {
	r, ok := pl.info.get(id)
	if !ok {
		return fmt.Errorf("plant %s: no VM %s", pl.name, id)
	}
	if err := r.vm.Resume(p); err != nil {
		return err
	}
	r.ad.SetString(core.AttrState, core.StateRunning.String())
	return nil
}

// MigrateTo moves an active VM to another plant (paper §6 future work:
// "migration of active VMs across plants"): suspend, stream the private
// state over the cluster interconnect, re-home the NIC on a host-only
// network of the destination's matching domain, resume, and hand the
// information-system record over. The VMID is preserved; the shop's
// soft routing heals on its next query.
func (pl *Plant) MigrateTo(p *sim.Proc, id core.VMID, dst *Plant) (err error) {
	if dst == pl {
		return nil
	}
	start := p.Now()
	sp := pl.tel.T().Start(p, "plant.migrate").
		Set("plant", pl.name).
		Set("dst", dst.name).
		Set("vmid", string(id))
	defer func() {
		sp.EndErr(p, err)
		if err == nil {
			pl.mMigrations.Inc()
			pl.gActiveVMs.Set(int64(pl.info.Count()))
			dst.gActiveVMs.Set(int64(dst.info.Count()))
		}
	}()
	r, ok := pl.info.get(id)
	if !ok {
		return fmt.Errorf("plant %s: no VM %s", pl.name, id)
	}
	// The slot is held from here until the record lands on dst.
	if !dst.reserve() {
		return fmt.Errorf("plant %s: destination %s at VM capacity", pl.name, dst.name)
	}
	defer dst.unreserve()
	vm := r.vm
	if vm.State() != vmm.Running {
		return fmt.Errorf("plant %s: VM %s is %s; cannot migrate", pl.name, id, vm.State())
	}
	dstNet, _, err := dst.nets.Acquire(r.domain)
	if err != nil {
		return fmt.Errorf("plant %s: destination network: %w", pl.name, err)
	}
	abort := func(cause error) error {
		dst.nets.Release(r.domain)
		return cause
	}
	mac := vm.MAC()
	if err := vm.Suspend(p); err != nil {
		return abort(err)
	}
	if err := vm.Migrate(p, dst.node); err != nil {
		return abort(err)
	}
	// A lazy clone's disk reads the destination's image cache from here:
	// what it holds, and demand faults for the rest.
	pl.unhydrate(p, id, false)
	vm.DetachNIC()
	if err := vm.Resume(p); err != nil {
		return abort(err)
	}
	if r.lazy != nil {
		dst.hydrate(p, vm, r.lazy, start, sp)
	}
	if err := vm.AttachNIC(dstNet, mac); err != nil {
		return abort(err)
	}
	// Hand over bookkeeping: record moves, source network slot freed.
	pl.info.remove(id)
	pl.mu.Lock()
	delete(pl.host, id)
	pl.mu.Unlock()
	pl.journalVM(p, id, false)
	if err := pl.nets.Release(r.domain); err != nil {
		return err
	}
	r.ad.SetString(core.AttrPlant, dst.name)
	r.ad.SetString(core.AttrNetwork, dstNet.ID)
	dst.info.store(r)
	dst.mu.Lock()
	dst.host[id] = r
	dst.mu.Unlock()
	dst.journalVM(p, id, true)
	return nil
}

// reserve holds one of the plant's MaxVMs slots for a VM on its way in
// (a creation or an incoming migration) until unreserve, so two arrivals
// racing for the last slot cannot both land. It reports false when the
// VMs held plus the slots already held fill the plant.
func (pl *Plant) reserve() bool {
	if pl.cfg.MaxVMs <= 0 {
		return true
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.info.Count()+pl.creating >= pl.cfg.MaxVMs {
		return false
	}
	pl.creating++
	return true
}

// unreserve releases the slot reserve held.
func (pl *Plant) unreserve() {
	if pl.cfg.MaxVMs > 0 {
		pl.mu.Lock()
		pl.creating--
		pl.mu.Unlock()
	}
}

// takePrecreated pops a pooled clone of the named image.
func (pl *Plant) takePrecreated(image string) (precreated, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	q := pl.pool[image]
	if len(q) == 0 {
		return precreated{}, false
	}
	pre := q[0]
	pl.pool[image] = q[1:]
	return pre, true
}

// PoolSize reports how many pre-created clones of the image are parked.
func (pl *Plant) PoolSize(image string) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.pool[image])
}

// Precreate speculatively clones the named golden image count times and
// parks the clones suspended, so later matching requests resume them
// instead of paying the state copy on the critical path (paper §4.3:
// "latency-hiding optimizations such as speculative pre-creation of VMs
// can be conceived"). It is meant to run during plant idle time.
func (pl *Plant) Precreate(p *sim.Proc, image string, count int) (err error) {
	sp := pl.tel.T().Start(p, "plant.precreate").
		Set("plant", pl.name).
		Set("golden", image).
		SetInt("count", int64(count))
	defer func() { sp.EndErr(p, err) }()
	// Open the image like Create does: a quarantined image
	// refuses (speculation must not park clones of suspect state), and
	// the cold verification cost is paid here, off the critical path.
	cctx, err := pl.wh.OpenClone(image)
	if err != nil {
		return fmt.Errorf("plant %s: precreate %q: %w", pl.name, image, err)
	}
	golden := cctx.Image
	backend, err := pl.backends.Get(golden.Backend)
	if err != nil {
		return err
	}
	// A parked clone has no hydrator (nothing should be copying under a
	// suspended VM), so speculation under lazy mode falls back to link
	// cloning — still off the critical path, just eager.
	mode := pl.cfg.CloneMode
	if mode == vdisk.CloneByLazy {
		mode = vdisk.CloneByLink
	}
	for i := 0; i < count; i++ {
		pl.mu.Lock()
		pl.poolSeq++
		seq := pl.poolSeq
		pl.mu.Unlock()
		id := core.VMID(fmt.Sprintf("pre-%s-%d", pl.name, seq))
		vm, cs, err := backend.Clone(p, pl.node, cctx, id, mode)
		if err != nil {
			return fmt.Errorf("plant %s: precreate: %w", pl.name, err)
		}
		if err := vm.Suspend(p); err != nil {
			return fmt.Errorf("plant %s: precreate suspend: %w", pl.name, err)
		}
		golden.Ref() // the parked clone links into the image
		pl.mCloneBytes.Add(cs.CopiedBytes)
		pl.mCloneLinks.Add(int64(cs.LinkedFiles))
		pl.mu.Lock()
		pl.pool[image] = append(pl.pool[image], precreated{vm: vm, clone: cs})
		pl.mu.Unlock()
	}
	return nil
}

// PublishImage checkpoints an active VM and publishes it to the VM
// Warehouse as a new golden image under newName — the paper's §3.2
// installer workflow ("providing VM installers with the capability of
// publishing a VM image to the Warehouse, for subsequent instantiations
// through VMPlant"). The VM briefly pauses while its state is
// snapshotted and the image's state files are uploaded to the shared
// warehouse over the node's NFS path; it keeps running afterwards.
func (pl *Plant) PublishImage(p *sim.Proc, id core.VMID, newName string) error {
	r, ok := pl.info.get(id)
	if !ok {
		return fmt.Errorf("plant %s: no VM %s", pl.name, id)
	}
	vm := r.vm
	if vm.State() != vmm.Running {
		return fmt.Errorf("plant %s: VM %s is %s; cannot publish", pl.name, id, vm.State())
	}
	// Brief stun while the checkpoint is taken.
	p.Sleep(sim.Seconds(1.0 * pl.node.Jitter()))
	snap := vm.Disk().Snapshot(newName)
	im := &warehouse.Image{
		Name:      newName,
		Hardware:  vm.Hardware(),
		Backend:   vm.Backend(),
		Performed: vm.History(),
		Guest:     vm.Guest().Clone(),
		Disk:      snap,
	}
	// Upload the image's per-clone state (memory checkpoint and redo
	// logs) to the warehouse over NFS; the base extents are already
	// there (this VM link-cloned them) or are accounted at full size
	// for copy-cloned disks.
	upload := snap.RedoBytes() + im.MemImageBytes()
	pl.node.Warehouse().Charge(p, upload, pl.node.Jitter(), sim.Foreground)
	if err := pl.wh.Publish(im); err != nil {
		return fmt.Errorf("plant %s: publish %s: %w", pl.name, newName, err)
	}
	// Resume stun.
	p.Sleep(sim.Seconds(1.0 * pl.node.Jitter()))
	return nil
}

// VM returns the runtime object for an active VM (tests and the VNET
// server use it).
func (pl *Plant) VM(id core.VMID) (*vmm.VM, bool) {
	r, ok := pl.info.get(id)
	if !ok {
		return nil, false
	}
	return r.vm, true
}
